package engine

import "net/http"

// WriteJSON exposes the response writer to the external tests, which
// need a value no handler would ever produce to fail the encode step.
func (s *Server) WriteJSON(w http.ResponseWriter, status int, v any) {
	s.writeJSON(w, status, v)
}
