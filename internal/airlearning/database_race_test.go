package airlearning

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"autopilot/internal/policy"
)

// TestDatabaseConcurrentAccess hammers the database from many goroutines —
// writers inserting records, readers issuing Get/Best/All/Len — so
// `go test -race` proves the RWMutex covers every path the parallel
// evaluation engine exercises.
func TestDatabaseConcurrentAccess(t *testing.T) {
	db := NewDatabase()
	hypers := policy.AllHypers()
	const writers, readers, rounds = 4, 4, 50

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h := hypers[(w*rounds+r)%len(hypers)]
				for _, s := range Scenarios {
					db.Put(Record{
						Hyper:       h,
						Scenario:    s,
						SuccessRate: float64((w+r)%100) / 100,
					})
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h := hypers[(g*rounds+r)%len(hypers)]
				db.Get(h, DenseObstacle)
				db.Best(Scenarios[r%len(Scenarios)])
				db.All()
				db.Len()
			}
		}(g)
	}
	wg.Wait()

	if db.Len() == 0 {
		t.Fatal("no records survived the hammering")
	}
	// All must stay sorted by ID whatever the interleaving was.
	recs := db.All()
	for i := 1; i < len(recs); i++ {
		if recs[i-1].ID > recs[i].ID {
			t.Fatalf("All() not sorted: %q before %q", recs[i-1].ID, recs[i].ID)
		}
	}
}

// TestDatabaseConcurrentSnapshots interleaves concurrent writers with
// checkpoint snapshots — the access pattern of the training engine's
// resumable sweep, where every worker that completes a record re-snapshots
// the shared database. Under -race this proves Snapshot's read path is safe
// against in-flight Puts, and every snapshot written must itself be a
// loadable, internally consistent database.
func TestDatabaseConcurrentSnapshots(t *testing.T) {
	db := NewDatabase()
	hypers := policy.AllHypers()
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	const writers, snapshotters, rounds = 4, 3, 40

	// Seed one record so even the earliest snapshot is non-empty.
	db.Put(Record{Hyper: hypers[0], Scenario: LowObstacle, SuccessRate: 0.5})

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h := hypers[(w*rounds+r)%len(hypers)]
				db.Put(Record{
					Hyper:       h,
					Scenario:    Scenarios[r%len(Scenarios)],
					SuccessRate: float64((w+r)%100) / 100,
				})
			}
		}(w)
	}
	for s := 0; s < snapshotters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := db.Snapshot(path); err != nil {
					t.Errorf("Snapshot: %v", err)
					return
				}
				// Each snapshot is written atomically (temp file + rename),
				// so a concurrent reader must always see a complete database.
				loaded, err := Load(path)
				if err != nil {
					t.Errorf("Load mid-write: %v", err)
					return
				}
				if loaded.Len() == 0 {
					t.Error("snapshot lost all records")
					return
				}
			}
		}()
	}
	wg.Wait()

	final, err := Load(path)
	if err != nil {
		t.Fatalf("final Load: %v", err)
	}
	// The last snapshot is a subset of the final database: every record it
	// holds must round-trip exactly.
	for _, rec := range final.All() {
		got, ok := db.Get(rec.Hyper, rec.Scenario)
		if !ok {
			t.Fatalf("snapshot record %q missing from database", rec.ID)
		}
		if got.ID != rec.ID || got.Params != rec.Params {
			t.Fatalf("snapshot record %q diverged: %+v vs %+v", rec.ID, rec, got)
		}
	}
}

// TestBestDeterministicTieBreak pins the documented tie rule: among records
// with equal success, Best returns the lexicographically smallest ID
// regardless of insertion order.
func TestBestDeterministicTieBreak(t *testing.T) {
	mk := func(order []policy.Hyper) Record {
		db := NewDatabase()
		for _, h := range order {
			db.Put(Record{Hyper: h, Scenario: LowObstacle, SuccessRate: 0.5})
		}
		best, ok := db.Best(LowObstacle)
		if !ok {
			t.Fatal("no best record")
		}
		return best
	}
	a := mk([]policy.Hyper{{Layers: 2, Filters: 32}, {Layers: 9, Filters: 64}, {Layers: 4, Filters: 48}})
	b := mk([]policy.Hyper{{Layers: 9, Filters: 64}, {Layers: 4, Filters: 48}, {Layers: 2, Filters: 32}})
	if a.ID != b.ID {
		t.Fatalf("tie-break depends on insertion order: %q vs %q", a.ID, b.ID)
	}
	want := Key(policy.Hyper{Layers: 2, Filters: 32}, LowObstacle)
	if a.ID != fmt.Sprint(want) {
		t.Fatalf("Best = %q, want smallest ID %q", a.ID, want)
	}
}

// TestBestMatchesSortedScan pins Best against the ID-ordered scan it
// replaced, on random databases with tied, NaN and ±0 success rates.
func TestBestMatchesSortedScan(t *testing.T) {
	scan := func(db *Database, s Scenario) (Record, bool) {
		var best Record
		found := false
		for _, r := range db.All() {
			if r.Scenario == s && (!found || r.SuccessRate > best.SuccessRate) {
				best, found = r, true
			}
		}
		return best, found
	}
	rates := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 0.5, 0.75, math.NaN()}
	rng := rand.New(rand.NewSource(1))
	hypers := policy.AllHypers()
	for trial := 0; trial < 500; trial++ {
		db := NewDatabase()
		for i, n := 0, rng.Intn(12); i < n; i++ {
			db.Put(Record{Hyper: hypers[rng.Intn(len(hypers))], Scenario: Scenarios[rng.Intn(len(Scenarios))],
				SuccessRate: rates[rng.Intn(len(rates))]})
		}
		for _, s := range Scenarios {
			got, gok := db.Best(s)
			want, wok := scan(db, s)
			if gok != wok || got.ID != want.ID {
				t.Fatalf("trial %d, %v: Best = %q (%v), sorted scan = %q (%v)", trial, s, got.ID, gok, want.ID, wok)
			}
		}
	}
}
