// Package rescache is a persistent, content-addressed cache of
// simulation results.
//
// Simulations are deterministic functions of their inputs (the guest
// program, the design point, the manager and the run shape), so a
// completed sim.Result can be reused by any later process given the same
// inputs. Each entry is keyed by a canonical SHA-256 digest over those
// inputs plus a module version tag, and stored as a JSON envelope whose
// payload carries its own checksum. Writes go through a temp file and an
// atomic rename, so concurrent writers and crashed processes can never
// leave a partially written entry in place; reads verify the envelope's
// digest and payload checksum and treat any corrupt or stale entry as a
// miss. Go's float64 JSON encoding is exact (shortest round-trip form),
// so a cached Result renders figures byte-identically to a fresh run.
//
// Hit/miss/store/bypass counters register in the provided obs.Registry,
// so a live monitor's /metrics endpoint exposes cache behaviour.
package rescache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"powerchop/internal/obs"
	"powerchop/internal/sim"
)

// Version tags every entry with the cache-format-and-simulator
// generation. Bump it whenever a change alters simulation results or the
// envelope layout: older entries then read as stale and re-simulate.
const Version = "powerchop-rescache-v1"

// Key identifies one simulation's inputs. Each field is a canonical
// string: Program a program content digest (program.Digest), Design and
// Manager deterministic fingerprints of the design point and manager
// configuration, Config the run shape (translations, sampling, quality
// tracking).
type Key struct {
	Program string
	Design  string
	Manager string
	Config  string
}

// Digest returns the entry address: a SHA-256 over the labeled key
// fields and the module version.
func (k Key) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "version=%s\nprogram=%s\ndesign=%s\nmanager=%s\nconfig=%s\n",
		Version, k.Program, k.Design, k.Manager, k.Config)
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint renders a value into a deterministic string for a Key
// field. Plain structs of scalars, strings, slices and nested such
// structs (e.g. arch.Design) render via Go syntax, which is stable for
// those shapes. Float-keyed parameter maps (policy parameter sets) are
// rendered through CanonicalParams — Go map iteration order would
// otherwise make the key nondeterministic. Other map-bearing values
// still have no deterministic rendering and must not be fingerprinted.
func Fingerprint(v any) string {
	if m, ok := v.(map[string]float64); ok {
		return CanonicalParams(m)
	}
	return fmt.Sprintf("%#v", v)
}

// CanonicalParams renders a policy parameter map in the cache's
// canonical form: "{k1=v1,k2=v2}" with keys sorted lexically and each
// value formatted by strconv.FormatFloat(v, 'g', -1, 64) — the shortest
// decimal string that round-trips the exact float64. The encoding is a
// pure function of the map's contents: insertion order, map identity
// and nil-vs-empty all render identically ("{}" for both nil and
// empty), so map-backed parameter sets can never split or alias cache
// entries nondeterministically.
func CanonicalParams(params map[string]float64) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(params[k], 'g', -1, 64))
	}
	b.WriteByte('}')
	return b.String()
}

// envelope is the on-disk entry format.
type envelope struct {
	// Digest is the key digest the entry was stored under; a mismatch
	// with the requesting key means the file is stale or misplaced.
	Digest string `json:"digest"`
	// Version is the cache generation that wrote the entry.
	Version string `json:"version"`
	// Sum is the SHA-256 of the Result payload bytes.
	Sum string `json:"sum"`
	// Result is the marshaled sim.Result.
	Result json.RawMessage `json:"result"`
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Stores  uint64
	Corrupt uint64
	Stale   uint64
	Bypass  uint64
	Errors  uint64
}

// Cache is a content-addressed result store rooted at one directory.
// All methods are safe for concurrent use by multiple goroutines and
// multiple processes sharing the directory.
type Cache struct {
	dir string

	hits    *obs.Counter
	misses  *obs.Counter
	stores  *obs.Counter
	corrupt *obs.Counter
	stale   *obs.Counter
	bypass  *obs.Counter
	errors  *obs.Counter
}

// New opens a cache rooted at dir, registering its counters in reg (a
// private registry when nil). The directory is created lazily on the
// first store; a missing or unreadable directory simply yields misses,
// so opening never fails — callers that want early validation should
// create the directory themselves.
func New(dir string, reg *obs.Registry) *Cache {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cache{
		dir:     dir,
		hits:    reg.Counter("rescache.hit"),
		misses:  reg.Counter("rescache.miss"),
		stores:  reg.Counter("rescache.store"),
		corrupt: reg.Counter("rescache.corrupt"),
		stale:   reg.Counter("rescache.stale"),
		bypass:  reg.Counter("rescache.bypass"),
		errors:  reg.Counter("rescache.error"),
	}
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Value(),
		Misses:  c.misses.Value(),
		Stores:  c.stores.Value(),
		Corrupt: c.corrupt.Value(),
		Stale:   c.stale.Value(),
		Bypass:  c.bypass.Value(),
		Errors:  c.errors.Value(),
	}
}

// CountBypass records that a run skipped the cache (e.g. because it
// records its whole event stream or audit trail, which a cached result
// cannot replay).
func (c *Cache) CountBypass() { c.bypass.Inc() }

// path returns the entry file for a key digest.
func (c *Cache) path(digest string) string {
	return filepath.Join(c.dir, digest+".json")
}

// Get loads the entry for key, verifying the envelope before trusting
// it. Any absent, stale (digest or version mismatch) or corrupt
// (undecodable, checksum mismatch) entry reads as a miss.
func (c *Cache) Get(key Key) (*sim.Result, bool) {
	digest := key.Digest()
	data, err := os.ReadFile(c.path(digest))
	if err != nil {
		c.misses.Inc()
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		c.corrupt.Inc()
		c.misses.Inc()
		return nil, false
	}
	if env.Digest != digest || env.Version != Version {
		c.stale.Inc()
		c.misses.Inc()
		return nil, false
	}
	if payloadSum(env.Result) != env.Sum {
		c.corrupt.Inc()
		c.misses.Inc()
		return nil, false
	}
	var res sim.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		c.corrupt.Inc()
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return &res, true
}

// Tally is one caller's own share of a cache's lookups. GetContext counts
// each hit or miss in the Tally its context carries, on top of the
// cache's global counters, so a server handling concurrent requests can
// charge each request only the lookups made on its behalf.
type Tally struct {
	hits, misses atomic.Uint64
}

// Hits returns the hits counted so far.
func (t *Tally) Hits() uint64 { return t.hits.Load() }

// Misses returns the misses counted so far.
func (t *Tally) Misses() uint64 { return t.misses.Load() }

type tallyKey struct{}

// WithTally returns a context under which GetContext lookups also count
// in t.
func WithTally(ctx context.Context, t *Tally) context.Context {
	return context.WithValue(ctx, tallyKey{}, t)
}

// GetContext is Get, with the outcome also counted in the Tally ctx
// carries (see WithTally), if any.
func (c *Cache) GetContext(ctx context.Context, key Key) (*sim.Result, bool) {
	res, ok := c.Get(key)
	if t, _ := ctx.Value(tallyKey{}).(*Tally); t != nil {
		if ok {
			t.hits.Add(1)
		} else {
			t.misses.Add(1)
		}
	}
	return res, ok
}

// Put stores the result under key. The entry is written to a temp file
// in the cache directory and moved into place with an atomic rename;
// concurrent writers of the same key both succeed and leave identical
// content. Failures are counted and returned, but callers normally treat
// the cache as best-effort and ignore them.
func (c *Cache) Put(key Key, res *sim.Result) error {
	payload, err := json.Marshal(res)
	if err != nil {
		c.errors.Inc()
		return fmt.Errorf("rescache: encoding result: %w", err)
	}
	env := envelope{
		Digest:  key.Digest(),
		Version: Version,
		Sum:     payloadSum(payload),
		Result:  payload,
	}
	data, err := json.Marshal(&env)
	if err != nil {
		c.errors.Inc()
		return fmt.Errorf("rescache: encoding envelope: %w", err)
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		c.errors.Inc()
		return fmt.Errorf("rescache: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, ".rescache-*.tmp")
	if err != nil {
		c.errors.Inc()
		return fmt.Errorf("rescache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.errors.Inc()
		return fmt.Errorf("rescache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.errors.Inc()
		return fmt.Errorf("rescache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(env.Digest)); err != nil {
		os.Remove(tmp.Name())
		c.errors.Inc()
		return fmt.Errorf("rescache: %w", err)
	}
	c.stores.Inc()
	return nil
}

// payloadSum is the checksum stored alongside (and verified against) the
// Result payload.
func payloadSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
