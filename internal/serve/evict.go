package serve

// Memory-bounded serving: the registry charges every built sample an
// estimated resident byte size and, when a configured budget
// (WithMaxSampleBytes / cvserve -max-sample-bytes) is exceeded, evicts
// entries until the total fits again. Eviction is *hits-informed LRU*:
// entries Find has never selected go first (a built-but-unused sample
// is pure cost), then the least-recently-used, with larger entries
// preferred on ties so each eviction frees as much as possible. Entries
// belonging to a live streaming table are pinned — evicting the current
// generation would silently degrade a table that explicitly asked to
// stay live — so a budget smaller than the pinned total is enforced
// only for the evictable remainder. An evicted key is rebuilt on the
// next Build of the same request (a deliberate cache miss, never an
// error).

import (
	"strings"

	"repro/internal/samplers"
	"repro/internal/table"
)

// sampleRowWidth estimates the resident bytes one sampled row costs:
// its id (int32) and weight (float64) plus the width of one table row
// it keeps meaningful — 4 bytes per dictionary-coded string column, 8
// per numeric column. A deliberate estimate, not an accounting of the
// allocator: it is stable, cheap, and proportional to what actually
// grows when samples pile up.
func sampleRowWidth(sch table.Schema) int64 {
	w := int64(4 + 8) // row id + weight
	for _, c := range sch {
		if c.Kind == table.String {
			w += 4
		} else {
			w += 8
		}
	}
	return w
}

// entrySizeBytes is the byte size charged against the registry budget
// for one built sample: weighted-sample rows × row width.
func entrySizeBytes(s *samplers.RowSample, sch table.Schema) int64 {
	return int64(s.Len()) * sampleRowWidth(sch)
}

// ResidentSampleBytes returns the current estimated resident size of
// all built samples (the number eviction keeps under MaxSampleBytes).
func (r *Registry) ResidentSampleBytes() int64 { return r.residentBytes.Load() }

// MaxSampleBytes returns the configured resident sample budget (0 =
// unbounded).
func (r *Registry) MaxSampleBytes() int64 { return r.maxSampleBytes }

// Evictions returns how many entries the byte budget has evicted.
func (r *Registry) Evictions() int64 { return r.evictions.Load() }

// EvictedBytes returns the total estimated bytes eviction has freed.
func (r *Registry) EvictedBytes() int64 { return r.evictedBytes.Load() }

// victim identifies one eviction candidate and the signals it is
// ranked by.
type victim struct {
	sh    *shard
	key   string
	fresh bool // the entry whose install triggered this eviction pass
	hits  int64
	used  int64
	size  int64
}

// worse reports whether a should be evicted before b: the entry just
// installed last (it has had no chance to be hit, and its builder is
// about to answer from it), then never-hit entries, then
// least-recently-used, then largest (free the most per eviction), then
// key order for determinism.
func (a victim) worse(b victim) bool {
	if a.fresh != b.fresh {
		return b.fresh
	}
	if az, bz := a.hits == 0, b.hits == 0; az != bz {
		return az
	}
	if a.used != b.used {
		return a.used < b.used
	}
	if a.size != b.size {
		return a.size > b.size
	}
	return a.key < b.key
}

// maybeEvict brings resident sample bytes back under the budget, if one
// is set. Runs after every entry install, outside all shard locks, with
// the installed key, which goes only when nothing else can; a single
// evictor runs at a time (concurrent installers queue briefly on
// evictMu, which is only ever held for map-sized work, never builds).
func (r *Registry) maybeEvict(installed string) {
	if r.maxSampleBytes <= 0 {
		return
	}
	r.evictMu.Lock()
	defer r.evictMu.Unlock()
	for r.residentBytes.Load() > r.maxSampleBytes {
		v, ok := r.pickVictim(installed)
		if !ok {
			return // everything left is pinned; budget is best-effort
		}
		v.sh.mu.Lock()
		// re-verify under the write lock: the entry may have been
		// replaced (streaming refresh) or evicted since the scan
		evicted := false
		if e, present := v.sh.entries[v.key]; present && !v.sh.pinnedLocked(e) {
			delete(v.sh.entries, v.key)
			r.residentBytes.Add(-e.size)
			r.evictions.Add(1)
			r.evictedBytes.Add(e.size)
			r.metrics.evictions.Inc()
			r.metrics.evictedBytes.Add(e.size)
			evicted = true
		}
		v.sh.mu.Unlock()
		// the spill file goes with the entry (outside the shard lock):
		// an evicted sample must not resurrect from disk on its next
		// build
		if evicted {
			r.dropSpilled(v.key)
		}
	}
}

// pickVictim scans each shard (under its read lock) for its worst
// unpinned entry and returns the globally worst one.
func (r *Registry) pickVictim(installed string) (victim, bool) {
	var best victim
	found := false
	for _, sh := range r.shards {
		sh.mu.RLock()
		for key, e := range sh.entries {
			if sh.pinnedLocked(e) {
				continue
			}
			v := victim{sh: sh, key: key, fresh: key == installed, hits: e.Hits.Load(), used: e.lastUsed.Load(), size: e.size}
			if !found || v.worse(best) {
				best, found = v, true
			}
		}
		sh.mu.RUnlock()
	}
	return best, found
}

// pinnedLocked reports whether e is the current generation of a live
// streaming table in this shard and therefore exempt from eviction. The
// match is by table name, not stream key, so a generation published
// while its registration is still holding the nil reservation
// placeholder (ingest.New publishes generation 1 before startStream
// installs the streamState) is already pinned. Caller holds s.mu
// (either mode).
func (s *shard) pinnedLocked(e *Entry) bool {
	if e.snapshot == nil {
		return false // static entries are never pinned
	}
	for n := range s.streams {
		if strings.EqualFold(n, e.Table) {
			return true
		}
	}
	return false
}
