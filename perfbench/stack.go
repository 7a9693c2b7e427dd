package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/experiments/cluster"
	"repro/internal/obs"
)

// stack is one lpdag-serve node, wired from the same exported
// constructors cmd/lpdag-serve uses, served on a 127.0.0.1:0 listener
// inside the benchmark process. The benchmark-owned span wrapper sits
// around engine.Server and the shard handler; the request-logging
// middleware wraps the whole mux exactly as in lpdag-serve (its log
// lines go to io.Discard).
type stack struct {
	dir      string // temporary directory, removed by close
	storeDir string // "" unless the node has a durable session store
	eng      *engine.Engine
	store    *engine.SessionStore
	http     *http.Server
	served   chan error
	url      string
}

// stackOptions select the optional parts of a node.
type stackOptions struct {
	durable bool
	tracer  *tracer
	// tamper, when non-nil, wraps the served handler; the benchmark's
	// own tests use it to prove that the output checks fire.
	tamper func(http.Handler) http.Handler
}

// startStack starts a node. On error everything it started is stopped
// again and its directory removed.
func startStack(tmp string, opt stackOptions) (st *stack, err error) {
	dir, err := os.MkdirTemp(tmp, "perfbench-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	st = &stack{dir: dir}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
			st = nil
		}
	}()
	reg := obs.NewRegistry()
	st.eng = engine.New(engine.Config{Workers: runtime.NumCPU(), Obs: reg})
	if opt.durable {
		st.storeDir = filepath.Join(dir, "sessions")
		if st.store, err = engine.OpenSessionStore(st.storeDir); err != nil {
			return st, err
		}
	}
	srv := engine.NewServer(st.eng, engine.ServerConfig{SessionStore: st.store})
	mux := http.NewServeMux()
	mux.Handle("/v1/campaign", experiments.CampaignHandler(st.eng))
	mux.Handle("/v1/shard", opt.tracer.wrap(cluster.NewWorkerHandler(st.eng, cluster.WorkerConfig{
		Heartbeat: cluster.DefaultHeartbeat, Load: srv,
	})))
	mux.Handle("/", opt.tracer.wrap(srv))
	var h http.Handler = engine.LogRequests(mux, slog.New(slog.NewTextHandler(io.Discard, nil)), reg, engine.DefaultSlowRequest)
	if opt.tamper != nil {
		h = opt.tamper(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.http.Serve(ln) }()
	st.url = "http://" + ln.Addr().String()
	return st, nil
}

// stopServing closes the listener and every connection, then the
// engine and the session store, leaving the store's files on disk. It
// is idempotent.
func (st *stack) stopServing() error {
	var errs []error
	if st.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := st.http.Shutdown(ctx); err != nil {
			errs = append(errs, st.http.Close())
		}
		cancel()
		if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		st.http = nil
	}
	if st.eng != nil {
		st.eng.Close()
		st.eng = nil
	}
	if st.store != nil {
		errs = append(errs, st.store.Close())
		st.store = nil
	}
	return errors.Join(errs...)
}

// close stops the node and removes its directory. It is idempotent.
func (st *stack) close() error {
	err := st.stopServing()
	if st.dir != "" {
		err = errors.Join(err, os.RemoveAll(st.dir))
		st.dir = ""
	}
	return err
}

// newHTTPClient returns a client holding one keep-alive connection to
// the node, the shape of every caller the benchmark models.
func newHTTPClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr}, tr
}
