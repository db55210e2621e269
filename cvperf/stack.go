package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/wal"
)

// stackConfig mirrors the cvserve flags a workload sets. Flags it does
// not name keep cvserve's defaults; the QoS front end stays off.
type stackConfig struct {
	maxSampleBytes int64  // -max-sample-bytes
	dataDir        string // -data-dir ("" = in-memory)
	tables         map[string]string
}

// fsyncPolicy is the -fsync policy of every durable stack and of the
// write probe's standalone WAL.
const fsyncPolicy = wal.SyncInterval

// stack is one live cvserve: the registry and HTTP front end wired as
// cmd/cvserve wires them, listening on a loopback TCP port, plus the
// typed client that drives it over that port.
type stack struct {
	reg    *serve.Registry
	app    *serve.Server
	hs     *http.Server
	served chan error
	cl     *client.Client
	tr     *http.Transport
	tables map[string]*table.Table
	// loadTime sums table.LoadCSVInferred across the stack's tables.
	loadTime time.Duration
	recovery serve.RecoveryReport
}

// startStack boots a cvserve in-process. Client connections are capped
// at three, the most any workload uses (ingest's appender and two
// queriers).
func startStack(cfg stackConfig) (*stack, error) {
	var popts serve.PersistOptions
	if cfg.dataDir != "" {
		popts = serve.PersistOptions{Dir: cfg.dataDir, Fsync: fsyncPolicy}
	}
	reg := serve.NewRegistry(serve.WithMaxSampleBytes(cfg.maxSampleBytes), serve.WithShards(0),
		serve.WithPersistence(popts))
	reg.SetStreamDefaults(ingest.Policy{})
	s := &stack{reg: reg, tables: map[string]*table.Table{}}
	for name, path := range cfg.tables {
		t0 := time.Now()
		tbl, err := table.LoadCSVInferred(name, path)
		s.loadTime += time.Since(t0)
		if err != nil {
			reg.Close()
			return nil, err
		}
		if err := reg.RegisterTable(tbl); err != nil {
			reg.Close()
			return nil, err
		}
		s.tables[name] = tbl
	}
	// cvserve recovers whenever -data-dir is set
	if cfg.dataDir != "" {
		rep, err := reg.Recover(context.Background())
		if err != nil {
			reg.Close()
			return nil, fmt.Errorf("recover: %w", err)
		}
		s.recovery = rep
	}
	// cvserve logs one structured line per request to stderr; the same
	// handler writing to io.Discard keeps that formatting cost on the
	// path without flooding the benchmark's output
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s.app = serve.NewServer(reg, serve.WithDefaultTargetCV(0), serve.WithLogger(logger),
		serve.WithIngestHorizonRows(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s.hs = &http.Server{
		Handler:           s.app,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()

	s.tr = &http.Transport{MaxConnsPerHost: 3, MaxIdleConnsPerHost: 3}
	hc := &http.Client{Transport: hashTransport{base: s.tr}}
	// retries off: a failed request is a failed op, never a hidden retry
	s.cl, err = client.New("http://"+ln.Addr().String(), hc, client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close shuts the HTTP server down, waits for it, and closes the
// registry (which flushes and checkpoints streaming tables).
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.tr.CloseIdleConnections()
	s.reg.Close()
	return err
}

// bodySink receives the FNV-64a digest and size of one response body.
// A request carries it in its context (withSink); the transport fills
// it as the client reads the body.
type bodySink struct {
	hash  uint64
	bytes int64
}

type sinkKey struct{}

func withSink(ctx context.Context, s *bodySink) context.Context {
	return context.WithValue(ctx, sinkKey{}, s)
}

// hashTransport digests every response body whose request carries a
// bodySink, so identical answers can be checked byte for byte through
// the typed client.
type hashTransport struct{ base http.RoundTripper }

func (t hashTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if sink, ok := req.Context().Value(sinkKey{}).(*bodySink); ok {
		resp.Body = &hashBody{rc: resp.Body, sink: sink, h: fnv.New64a()}
	}
	return resp, nil
}

type hashBody struct {
	rc   io.ReadCloser
	sink *bodySink
	h    hash.Hash64
}

func (b *hashBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.h.Write(p[:n])
	b.sink.bytes += int64(n)
	return n, err
}

// Close digests whatever the decoder left unread (the trailing
// newline, depending on how the bytes arrived), so the digest always
// covers the whole body.
func (b *hashBody) Close() error {
	n, _ := io.Copy(b.h, b.rc)
	b.sink.bytes += n
	b.sink.hash = b.h.Sum64()
	return b.rc.Close()
}
