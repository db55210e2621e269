package serve

// Streaming tables: the registry-side half of the ingest subsystem. A
// streaming table is owned by an ingest.Stream (private buffer +
// resident one-pass CVOPT sampler); every publication the stream emits
// is installed here under the table's *shard* write lock — the
// registered table pointer and the sample entry swap together, so the
// read path (Table/Find/Query) always observes a complete (snapshot,
// sample) pair of the same generation, and refreshes on one table never
// stall queries on tables in other shards. Queries that already picked
// up an older entry keep answering from that entry's own snapshot;
// nothing is ever mutated in place.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/table"
)

// Sentinel errors for the streaming entry points, matched with
// errors.Is by the HTTP layer to pick status codes. Wrapped errors
// carry the table name.
var (
	// ErrNotStreaming reports an append/refresh against a table that
	// was never registered as streaming.
	ErrNotStreaming = errors.New("table is not streaming")
	// ErrAlreadyStreaming reports a second streaming registration of
	// one table.
	ErrAlreadyStreaming = errors.New("table is already streaming")
	// ErrUnknownTable reports a streaming operation against a name no
	// table is registered under.
	ErrUnknownTable = errors.New("unknown table")
	// ErrClosed reports a streaming registration against a registry
	// whose Close has already run.
	ErrClosed = errors.New("registry is closed")
)

// streamState is the registry's handle on one streaming table.
type streamState struct {
	stream *ingest.Stream
	key    string        // the entry key publications swap
	cfg    ingest.Config // resolved config, persisted with checkpoints
}

// streamKey is the registry key every generation of a streaming table's
// sample publishes under — stable across refreshes (budget changes with
// a rate policy), so each publication replaces its predecessor.
func streamKey(name string, queries []core.QuerySpec) string {
	return fmt.Sprintf("stream:%q/%s", name, canonQueries(queries))
}

// SetStreamDefaults sets the refresh policy applied when a streaming
// registration does not choose its own (cmd/cvserve wires its
// -refresh-rows / -refresh-interval flags here).
func (r *Registry) SetStreamDefaults(p ingest.Policy) {
	r.defMu.Lock()
	defer r.defMu.Unlock()
	r.streamDefaults = p
}

// RegisterStreamingTable registers seed as a *streaming* table: its
// rows are copied into a private ingest buffer (seed stays untouched),
// generation 1 publishes immediately (snapshot + sample when seed has
// rows), and from then on Append/Refresh and the configured policy keep
// the published sample current. cfg.Policy zero-value falls back to the
// registry's stream defaults.
func (r *Registry) RegisterStreamingTable(seed *table.Table, cfg ingest.Config) error {
	if seed == nil || seed.Name == "" {
		return fmt.Errorf("serve: streaming table must be non-nil and named")
	}
	if r.closed.Load() {
		return fmt.Errorf("serve: %w", ErrClosed)
	}
	sh := r.shardFor(seed.Name)
	r.regMu.Lock()
	if err := r.checkNameFree(seed.Name); err != nil {
		r.regMu.Unlock()
		return err
	}
	// reserve the name (nil placeholder) so a racing registration
	// cannot claim it while the stream spins up outside the lock
	sh.mu.Lock()
	sh.streams[seed.Name] = nil
	sh.mu.Unlock()
	r.regMu.Unlock()
	cfg.Policy = r.applyPolicyDefaults(cfg.Policy)
	return r.startStream(sh, seed.Name, seed, cfg)
}

// StreamTable converts an already-registered static table into a
// streaming one in place: the registered rows seed the stream, and the
// first publication atomically replaces the registered table with the
// stream's snapshot. Existing static samples of the table stay valid
// (their row ids index a prefix of every later snapshot).
func (r *Registry) StreamTable(name string, cfg ingest.Config) error {
	if r.closed.Load() {
		return fmt.Errorf("serve: %w", ErrClosed)
	}
	// regMu keeps the streaming-state check and the reservation atomic
	// against concurrent registrations of the same name (same ordering
	// rule as every registration path: regMu first, then shard locks)
	r.regMu.Lock()
	sh := r.shardFor(name)
	sh.mu.Lock()
	seed, canonical := sh.tableLocked(name)
	if seed == nil {
		sh.mu.Unlock()
		r.regMu.Unlock()
		return fmt.Errorf("serve: %w: %q", ErrUnknownTable, name)
	}
	for existing := range sh.streams {
		if strings.EqualFold(existing, canonical) {
			sh.mu.Unlock()
			r.regMu.Unlock()
			return fmt.Errorf("serve: %w: %q", ErrAlreadyStreaming, canonical)
		}
	}
	sh.streams[canonical] = nil
	sh.mu.Unlock()
	r.regMu.Unlock()
	cfg.Policy = r.applyPolicyDefaults(cfg.Policy)
	return r.startStream(sh, canonical, seed, cfg)
}

// applyPolicyDefaults substitutes the registry defaults into unset
// (zero) policy fields, per the Policy convention: 0 inherits the
// default, negative explicitly disables the trigger even when a default
// exists.
func (r *Registry) applyPolicyDefaults(p ingest.Policy) ingest.Policy {
	r.defMu.Lock()
	defer r.defMu.Unlock()
	if p.MaxPending == 0 {
		p.MaxPending = r.streamDefaults.MaxPending
	}
	if p.Interval == 0 {
		p.Interval = r.streamDefaults.Interval
	}
	return p
}

// startStream spins up the ingest.Stream for a reserved name and
// finalizes (or rolls back) the reservation. If Close won the race
// while the stream was spinning up, the fresh stream — refresh loop
// included — is shut down before the error returns, so Close never
// leaks a late-starting goroutine.
func (r *Registry) startStream(sh *shard, name string, seed *table.Table, cfg ingest.Config) error {
	key := streamKey(name, cfg.Queries)
	st, err := ingest.New(seed, cfg, func(pub *ingest.Publication) {
		r.installPublication(sh, name, key, cfg, pub)
	})
	if err != nil {
		sh.mu.Lock()
		delete(sh.streams, name)
		sh.mu.Unlock()
		return err
	}
	// make the table durable before it becomes reachable: checkpoint-0
	// plus an attached WAL, so no append can slip in unlogged
	if r.persist != nil {
		if err := r.attachPersistence(st, name, cfg); err != nil {
			sh.mu.Lock()
			delete(sh.streams, name)
			sh.mu.Unlock()
			st.Close()
			return err
		}
	}
	sh.mu.Lock()
	if r.closed.Load() {
		delete(sh.streams, name)
		sh.mu.Unlock()
		st.Close()
		if r.persist != nil {
			r.detachPersistence(name)
		}
		return fmt.Errorf("serve: %w", ErrClosed)
	}
	sh.streams[name] = &streamState{stream: st, key: key, cfg: cfg}
	sh.mu.Unlock()
	return nil
}

// installPublication is the stream's publish callback: one shard write
// lock swaps the registered table to the new snapshot and the sample
// entry to the new generation together. The ingest side calls it under
// the stream's own mutex, so generations arrive strictly in order.
func (r *Registry) installPublication(sh *shard, name, key string, cfg ingest.Config, pub *ingest.Publication) {
	sh.mu.Lock()
	sh.tables[name] = pub.Snapshot
	// static autoscaled entries of this table keep answering from the
	// new snapshot (their row ids index a prefix of it), but their CV
	// guarantee was computed over the rows that existed at build time —
	// once appended data outgrows that population, their target_met
	// flips to an honest false
	for k, e := range sh.entries {
		if k != key && e.snapshot == nil && e.TargetCV > 0 &&
			strings.EqualFold(e.Table, name) && pub.Rows > e.popRows {
			e.cvStale.Store(true)
		}
	}
	if pub.Sample != nil {
		attrs := make(map[string]bool)
		for _, q := range cfg.Queries {
			for _, a := range q.GroupBy {
				attrs[a] = true
			}
		}
		e := &Entry{
			Key:           key,
			Table:         name,
			Budget:        pub.Budget,
			TargetCV:      pub.TargetCV,
			AchievedCV:    pub.AchievedCV,
			TargetMet:     pub.TargetMet,
			Queries:       cfg.Queries,
			Opts:          cfg.Opts,
			Sample:        pub.Sample,
			BuiltAt:       pub.BuiltAt,
			BuildDuration: pub.BuildDuration,
			Generation:    pub.Generation,
			attrs:         attrs,
			snapshot:      pub.Snapshot,
			popRows:       pub.Rows,
			size:          entrySizeBytes(pub.Sample, pub.Snapshot.Schema()),
		}
		e.lastUsed.Store(r.useClock.Add(1))
		// the hit counter is per key, not per generation: eviction
		// wants to know how hot the streaming sample is overall
		if old, ok := sh.entries[key]; ok {
			e.Hits.Store(old.Hits.Load())
			r.residentBytes.Add(-old.size)
		}
		sh.entries[key] = e
		r.residentBytes.Add(e.size)
	}
	sh.mu.Unlock()
	r.refreshes.Add(1)
	r.metrics.observeStreamPublication(name, pub.Generation, pub.Rows, pub.BuildDuration)
	if pub.Sample != nil {
		r.maybeEvict(key)
	}
}

// streamFor resolves a streaming table case-insensitively within its
// shard.
func (r *Registry) streamFor(name string) (*streamState, error) {
	sh := r.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if st, ok := sh.streams[name]; ok && st != nil {
		return st, nil
	}
	for n, st := range sh.streams {
		if st != nil && strings.EqualFold(n, name) {
			return st, nil
		}
	}
	if t, _ := sh.tableLocked(name); t != nil {
		return nil, fmt.Errorf("serve: %w: %q", ErrNotStreaming, name)
	}
	return nil, fmt.Errorf("serve: %w: %q", ErrUnknownTable, name)
}

// Append ingests a batch of rows into a streaming table. Rows are
// loosely typed ([]any per row, in schema order; JSON numbers welcome)
// and the batch is rejected atomically on the first malformed row.
// Crossing the stream's refresh threshold wakes its ingest loop; the
// published sample is otherwise unchanged until the next refresh.
func (r *Registry) Append(name string, rows [][]any) (ingest.AppendStatus, error) {
	st, err := r.streamFor(name)
	if err != nil {
		return ingest.AppendStatus{}, err
	}
	status, err := st.stream.Append(rows)
	if err == nil && status.Appended > 0 {
		r.metrics.ingestRows.With(st.stream.Name()).Add(int64(status.Appended))
		r.metrics.residentRows.With(st.stream.Name()).Set(int64(status.Rows))
		// durability point: the batch's WAL record is fsynced (per
		// policy) before the append is acknowledged; runs outside every
		// lock
		if cerr := r.persistCommit(st.stream.Name()); cerr != nil {
			return status, cerr
		}
	}
	return status, err
}

// Refresh finalizes and publishes a new sample generation for a
// streaming table now (a no-op returning the current entry when
// nothing is pending) and returns the freshly installed entry.
func (r *Registry) Refresh(name string) (*Entry, error) {
	st, err := r.streamFor(name)
	if err != nil {
		return nil, err
	}
	if _, err := st.stream.Refresh(); err != nil {
		return nil, fmt.Errorf("serve: refreshing %q: %w", name, err)
	}
	if err := r.persistCommit(st.stream.Name()); err != nil {
		return nil, err
	}
	sh := r.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.entries[st.key]
	if !ok {
		return nil, fmt.Errorf("serve: refreshing %q: publication vanished", name)
	}
	return e, nil
}

// StreamStatus is the ops view of one streaming table.
type StreamStatus struct {
	// Table is the canonical table name.
	Table string
	// Generation is the latest published generation.
	Generation uint64
	// Pending is how many appended rows the published sample does not
	// cover yet.
	Pending int
	// Rows is the total ingested row count.
	Rows int
	// RefreshErrors counts failed automatic refreshes.
	RefreshErrors int64
	// LastRefresh is the build duration of the most recent publication
	// (0 until one completes).
	LastRefresh time.Duration
}

// StreamCount returns the number of streaming tables without touching
// any per-stream lock (the /healthz hot path).
func (r *Registry) StreamCount() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, st := range sh.streams {
			if st != nil {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// StreamStatuses returns the ops view of every streaming table, sorted
// by name.
func (r *Registry) StreamStatuses() []StreamStatus {
	states := make(map[string]*streamState)
	for _, sh := range r.shards {
		sh.mu.RLock()
		for n, st := range sh.streams {
			if st != nil {
				states[n] = st
			}
		}
		sh.mu.RUnlock()
	}
	out := make([]StreamStatus, 0, len(states))
	for n, st := range states {
		out = append(out, StreamStatus{
			Table:         n,
			Generation:    st.stream.Generation(),
			Pending:       st.stream.Pending(),
			Rows:          st.stream.Rows(),
			RefreshErrors: st.stream.RefreshErrors(),
			LastRefresh:   st.stream.LastRefreshDuration(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// StreamStatus returns the ops view of one streaming table.
func (r *Registry) StreamStatus(name string) (StreamStatus, bool) {
	st, err := r.streamFor(name)
	if err != nil {
		return StreamStatus{}, false
	}
	return StreamStatus{
		Table:         st.stream.Name(),
		Generation:    st.stream.Generation(),
		Pending:       st.stream.Pending(),
		Rows:          st.stream.Rows(),
		RefreshErrors: st.stream.RefreshErrors(),
		LastRefresh:   st.stream.LastRefreshDuration(),
	}, true
}

// Close stops every streaming table's ingest loop and waits for each to
// exit; streaming registrations racing with Close are shut down by
// whichever side loses the race, so no refresh goroutine outlives this
// call. Published generations stay queryable; nothing refreshes
// automatically anymore, and new streaming registrations fail with
// ErrClosed.
//
// Static sample builds are *not* cancelled: Build runs synchronously on
// its caller's goroutine (the registry spawns no goroutine for it), so
// an in-flight build simply completes, installs its entry, and returns
// to its caller — there is nothing to leak. Safe to call more than
// once.
func (r *Registry) Close() {
	r.closed.Store(true)
	var states []*streamState
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, st := range sh.streams {
			if st != nil {
				states = append(states, st)
			}
		}
		sh.mu.Unlock()
	}
	for _, st := range states {
		st.stream.Close()
		// flush: rows appended (and acknowledged) since the last refresh
		// must reach a publication, not die with the process — the loop
		// is stopped, so this races nothing
		if st.stream.Pending() > 0 {
			// best-effort: Refresh only errors on an empty stream, which
			// has nothing to flush
			_, _ = st.stream.Refresh()
		}
	}
	// the final publications above are checkpointed and the WAL synced
	// before file handles close
	r.closePersist()
}
