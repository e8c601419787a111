package rescache

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/core"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// testResult runs a tiny simulation so the cached payload exercises the
// full Result shape (power report, samples, unit stats) rather than a
// hand-built fixture.
func testResult(t testing.TB) *sim.Result {
	t.Helper()
	bench, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(bench.MustBuild(), sim.Config{
		Design:          arch.Server(),
		Manager:         core.MustPowerChop(core.DefaultConfig()),
		MaxTranslations: 2000,
		SampleInterval:  50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testKey() Key {
	return Key{Program: "prog-digest", Design: "server", Manager: "powerchop", Config: "translations=2000"}
}

func TestRoundTrip(t *testing.T) {
	c := New(t.TempDir(), nil)
	key := testKey()

	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	res := testResult(t)
	if err := c.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	// The payload travels as JSON, so compare the canonical encodings:
	// a loaded Result must render byte-identically to the original.
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	have, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(have) {
		t.Fatal("round-tripped result encodes differently")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 store", st)
	}
}

func TestDistinctKeysDistinctEntries(t *testing.T) {
	a := testKey()
	b := a
	b.Config = "translations=4000"
	if a.Digest() == b.Digest() {
		t.Fatal("distinct keys share a digest")
	}
	c := New(t.TempDir(), nil)
	if err := c.Put(a, testResult(t)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(b); ok {
		t.Fatal("entry for key a served for key b")
	}
}

// TestStaleEntry plants an entry whose stored digest belongs to another
// key (as after a Version bump, which moves every address): the read must
// miss and count as stale.
func TestStaleEntry(t *testing.T) {
	dir := t.TempDir()
	c := New(dir, nil)
	key := testKey()
	if err := c.Put(key, testResult(t)); err != nil {
		t.Fatal(err)
	}
	other := key
	other.Config = "translations=9999"
	if err := os.Rename(c.path(key.Digest()), c.path(other.Digest())); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(other); ok {
		t.Fatal("stale entry served")
	}
	if st := c.Stats(); st.Stale != 1 {
		t.Fatalf("stats = %+v, want 1 stale", st)
	}
}

// TestCorruptEntry covers both corruption modes: an undecodable file and
// a well-formed envelope whose payload fails its checksum.
func TestCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c := New(dir, nil)
	key := testKey()
	res := testResult(t)

	if err := os.WriteFile(c.path(key.Digest()), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("undecodable entry served")
	}

	if err := c.Put(key, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.path(key.Digest()))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env.Result = []byte(`{"Cycles":1}`) // payload no longer matches Sum
	tampered, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(key.Digest()), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("checksum-mismatched entry served")
	}
	if st := c.Stats(); st.Corrupt != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 corrupt, 0 hits", st)
	}
}

// TestMissingDirReadsAsMiss pins the documented lazy-directory contract.
func TestMissingDirReadsAsMiss(t *testing.T) {
	c := New("/nonexistent/rescache-test", nil)
	if _, ok := c.Get(testKey()); ok {
		t.Fatal("hit from nonexistent directory")
	}
}

// TestConcurrentAccess hammers one entry from concurrent writers and
// readers. Run under -race this checks the counters and the temp-file +
// rename protocol; every successful read must see a complete envelope.
func TestConcurrentAccess(t *testing.T) {
	c := New(t.TempDir(), nil)
	key := testKey()
	res := testResult(t)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := c.Put(key, res); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if got, ok := c.Get(key); ok {
					if got.Cycles != res.Cycles {
						t.Errorf("read cycles %v, want %v", got.Cycles, res.Cycles)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestFingerprintDeterministic(t *testing.T) {
	a := Fingerprint(arch.Server())
	b := Fingerprint(arch.Server())
	if a != b {
		t.Fatal("fingerprint of identical designs differs")
	}
	if a == Fingerprint(arch.Mobile()) {
		t.Fatal("fingerprint does not distinguish designs")
	}
}

func TestResultSurvivesEnvelope(t *testing.T) {
	c := New(t.TempDir(), nil)
	key := testKey()
	res := testResult(t)
	if err := c.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Get(key)
	if got == nil {
		t.Fatal("miss")
	}
	if !reflect.DeepEqual(res.Power, got.Power) {
		t.Fatal("power report did not survive the round trip")
	}
	if res.KnownPhases != got.KnownPhases {
		t.Fatalf("KnownPhases: stored %d, loaded %d", res.KnownPhases, got.KnownPhases)
	}
}

// TestTallyCountsOwnLookups pins per-caller attribution: lookups under a
// context carrying a Tally count there and in the global counters, while
// lookups under other contexts reach only the global counters.
func TestTallyCountsOwnLookups(t *testing.T) {
	c := New(t.TempDir(), nil)
	key := testKey()
	if err := c.Put(key, testResult(t)); err != nil {
		t.Fatal(err)
	}
	missing := key
	missing.Config = "translations=1"

	var mine, theirs Tally
	ctx := WithTally(context.Background(), &mine)
	other := WithTally(context.Background(), &theirs)
	c.GetContext(ctx, key)
	c.GetContext(ctx, key)
	c.GetContext(ctx, missing)
	c.GetContext(other, missing)
	c.GetContext(context.Background(), key)

	if mine.Hits() != 2 || mine.Misses() != 1 {
		t.Errorf("own tally = %d hits, %d misses; want 2, 1", mine.Hits(), mine.Misses())
	}
	if theirs.Hits() != 0 || theirs.Misses() != 1 {
		t.Errorf("other tally = %d hits, %d misses; want 0, 1", theirs.Hits(), theirs.Misses())
	}
	if st := c.Stats(); st.Hits != 3 || st.Misses != 2 {
		t.Errorf("global stats = %+v, want 3 hits, 2 misses", st)
	}
}

// telemetryResult is testResult with a telemetry store attached, so the
// Result carries per-window rows.
func telemetryResult(t testing.TB) *sim.Result {
	t.Helper()
	bench, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(bench.MustBuild(), sim.Config{
		Design:          arch.Server(),
		Manager:         core.MustPowerChop(core.DefaultConfig()),
		MaxTranslations: 2000,
		Telemetry:       tsdb.NewStore(tsdb.DefaultConfig()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Telemetry) == 0 {
		t.Fatal("telemetry run kept no rows")
	}
	return res
}

// TestTelemetryRowsInEnvelope pins how per-window rows ride in an entry:
// they round-trip exactly inside the checksummed payload, a Result
// without them encodes no Telemetry field at all (so entries written
// before rows existed stay valid), and a byte flipped inside the stored
// rows reads as a corrupt miss.
func TestTelemetryRowsInEnvelope(t *testing.T) {
	c := New(t.TempDir(), nil)
	plain, err := json.Marshal(testResult(t))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte(`"Telemetry"`)) {
		t.Error("a Result without telemetry encodes a Telemetry field")
	}

	key := testKey()
	key.Config += " telemetry=rows"
	res := telemetryResult(t)
	if err := c.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("telemetry entry missed")
	}
	if !reflect.DeepEqual(got.Telemetry, res.Telemetry) {
		t.Fatal("telemetry rows did not survive the round trip")
	}

	path := c.path(key.Digest())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	series := []byte(`"Series":"` + tsdb.SeriesInsns + `"`)
	i := bytes.Index(data, series)
	if i < 0 {
		t.Fatalf("entry holds no %s row sample", tsdb.SeriesInsns)
	}
	data[i+len(series)-2] ^= 1 // still valid JSON, wrong series name
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("entry with tampered rows served")
	}
	if st := c.Stats(); st.Corrupt != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt miss after 1 hit", st)
	}
}
