package serve

// Registry sharding. Each shard owns a disjoint set of tables — chosen
// by a case-folded FNV hash of the table name — together with
// *everything keyed by those tables*: the table pointers themselves,
// their built sample entries, their in-flight singleflight builds and
// their streaming state. Every per-table operation (register, build,
// find, query, append, refresh, publication install) locks exactly one
// shard, so work on one table never contends with work on a table in
// another shard; only rare whole-registry operations (TableNames,
// Entries, Counts, Close, registration's duplicate-name check) walk all
// shards, taking each lock briefly in turn.

import (
	"fmt"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/table"
)

// shard is one lock domain of the registry.
type shard struct {
	mu       sync.RWMutex
	tables   map[string]*table.Table
	entries  map[string]*Entry
	inflight map[string]*buildCall
	// streams holds the live ingest state of streaming tables, keyed by
	// canonical table name (nil value = registration in progress, which
	// reserves the name). See stream.go.
	streams map[string]*streamState
}

func newShard() *shard {
	return &shard{
		tables:   make(map[string]*table.Table),
		entries:  make(map[string]*Entry),
		inflight: make(map[string]*buildCall),
		streams:  make(map[string]*streamState),
	}
}

// shardFor maps a table name to its shard. The hash runs over the
// case-folded name so the case-insensitive lookups ("Sales", "sales")
// land on one shard. ASCII names — the practical universe — fold
// exactly as strings.EqualFold does; exotic Unicode one-way folds (ſ/s)
// may hash apart, which registration's global duplicate check keeps
// harmless (at most one spelling is ever registered).
func (r *Registry) shardFor(name string) *shard {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			// non-ASCII: fold the whole name the slow, allocating way
			folded := strings.ToLower(strings.ToUpper(name))
			h = offset32
			for j := 0; j < len(folded); j++ {
				h = (h ^ uint32(folded[j])) * prime32
			}
			return r.shards[h%uint32(len(r.shards))]
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h = (h ^ uint32(c)) * prime32
	}
	return r.shards[h%uint32(len(r.shards))]
}

// checkNameFreeLocked rejects a table name already taken in this shard
// by a registered table or an in-flight streaming registration. Caller
// holds s.mu (either mode).
func (s *shard) checkNameFreeLocked(name string) error {
	for existing := range s.tables {
		if strings.EqualFold(existing, name) {
			return fmt.Errorf("serve: table %q already registered (as %q)", name, existing)
		}
	}
	for existing := range s.streams {
		if strings.EqualFold(existing, name) {
			return fmt.Errorf("serve: table %q already registered (as streaming %q)", name, existing)
		}
	}
	return nil
}

// tableLocked resolves a table name case-insensitively within the
// shard. Caller holds s.mu (either mode).
func (s *shard) tableLocked(name string) (*table.Table, string) {
	if t, ok := s.tables[name]; ok {
		return t, name
	}
	for n, t := range s.tables {
		if strings.EqualFold(n, name) {
			return t, n
		}
	}
	return nil, ""
}
