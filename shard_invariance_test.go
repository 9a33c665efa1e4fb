package plurality

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// This file pins what the retirement of sharded single-run execution
// (Spec.Shards) must preserve. The serial event ladder is now the only
// execution of each asynchronous engine; the tests keep the names they had
// when they also drove the sharded engines, and check the guarantees that
// outlive it:
//
//   - the outcome matrix over protocols, topologies and fault models, and its
//     invariance to how replication-level parallelism spreads the work;
//   - that no protocol still accepts or reports a shard count;
//   - that a blob recorded by a sharded run is refused by version, not
//     misread as a serial payload;
//   - that the serial kernel stays byte-identical to the digests recorded
//     before sharded execution existed.

// invarianceAdversaries are the fault models the invariance matrix crosses
// with the protocols and topologies. Severities are mild so the planted
// plurality always survives: heavier delay (f=0.3, ×2) can flip the winner on
// the sparse decentralized cells — the paper's theorems cover the honest
// model only — and an upset cell would test the regime, not the invariant.
var invarianceAdversaries = map[string]AdversarySpec{
	"honest": {},
	"crash":  {Kind: AdversaryCrash, Fraction: 0.1, At: 2, Seed: 5},
	"delay":  {Kind: AdversaryDelay, Fraction: 0.2, Rate: 1.5, Seed: 5},
}

// invarianceSpec is the matrix cell: the golden-matrix shape at a much
// stronger planted bias, with the default (derived) horizon and a pinned
// seed. Alpha 9 shrinks the scale-free upset probability of the
// decentralized protocol's cluster endgame on the sparse reference graphs
// enough that seed 11 has the plurality winning in every cell.
func invarianceSpec(tp TopologySpec) Spec {
	return Spec{N: 600, K: 3, Alpha: 9, Seed: 11, Topology: tp}
}

// TestShardInvariance runs both event-ladder protocols across the reference
// topologies and fault models and asserts that the planted plurality wins
// every cell, and that the cell's run is the same run — digest for digest —
// when it is replication 0 of a two-worker batch, so the only parallelism
// left (one replication per pool worker) cannot change a result.
func TestShardInvariance(t *testing.T) {
	for _, name := range []string{"leader", "decentralized"} {
		for _, tp := range goldenTopologies {
			for advName, adv := range invarianceAdversaries {
				spec := invarianceSpec(tp)
				spec.Adversary = adv
				if name == "leader" && tp.Kind != TopologyComplete {
					// The leader protocol's generation budget is derived
					// from complete-graph mixing, so its sparse cells exhaust
					// the derived horizon with the plurality leading but
					// short of unanimity. Cap the horizon so the cells stay
					// cheap under -race; the capped run must still have the
					// plurality leading.
					spec.MaxTime = 500
				}
				key := fmt.Sprintf("%s/%s/%s", name, tp.ResolvedLabel(spec.N), advName)
				t.Run(key, func(t *testing.T) {
					if testing.Short() && tp.Kind != TopologyComplete {
						t.Skip("sparse-topology invariance column skipped in -short mode")
					}
					ctx := context.Background()
					res, err := Run(ctx, name, spec)
					if err != nil {
						t.Fatal(err)
					}
					if !res.PluralityWon {
						t.Fatalf("%s lost the plurality: winner %d, counts %v", key, res.Winner, res.FinalCounts)
					}
					batch, err := RunBatch(ctx, name, spec, 2, 2)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := digestResult(batch[0]), digestResult(res); got != want {
						t.Errorf("batch replication 0 digest %s != solo run %s", got, want)
					}
				})
			}
		}
	}
}

// TestShardsValidationMatrix pins, per registered protocol, that the shard
// count is gone from the whole surface: no protocol reports a "shards"
// statistic, and a spec carrying "shards" — as a client of the removed
// option would send it — is refused by a strict decoder instead of being
// silently run serially.
func TestShardsValidationMatrix(t *testing.T) {
	const body = `{"n":300,"k":2,"alpha":3,"seed":9,"shards":2}`
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var refused Spec
	if err := dec.Decode(&refused); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("strict decode of %s: err=%v, want an unknown-field error naming shards", body, err)
	}
	encoded, err := json.Marshal(Spec{N: 300, K: 2, Alpha: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(encoded, []byte("shards")) {
		t.Fatalf("Spec still encodes a shards field: %s", encoded)
	}
	for _, name := range Protocols() {
		t.Run(name, func(t *testing.T) {
			res, err := Run(context.Background(), name, Spec{N: 300, K: 2, Alpha: 3, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := res.Stats["shards"]; ok {
				t.Errorf("Stats[shards] = %v, want no shards statistic", v)
			}
		})
	}
}

// TestShardedResumeShardCountMismatch pins the fate of blobs recorded by the
// sharded engines: testdata/snapshot_v4_sharded_<protocol>.bin were captured
// mid-run at N=90, Shards=3 by the last build that had sharded execution
// (format version 4, one section per shard). They are refused with
// ErrSnapshotVersion before any state is decoded — never misread as a
// serial payload.
func TestShardedResumeShardCountMismatch(t *testing.T) {
	for _, name := range []string{"leader", "decentralized"} {
		t.Run(name, func(t *testing.T) {
			blob, err := os.ReadFile("testdata/snapshot_v4_sharded_" + name + ".bin")
			if err != nil {
				t.Fatal(err)
			}
			head := len(snapshotMagic)
			if len(blob) < head+2 || string(blob[:head]) != snapshotMagic {
				t.Fatal("fixture is not a snapshot blob")
			}
			if v := binary.LittleEndian.Uint16(blob[head:]); v != 4 {
				t.Fatalf("fixture format version %d, want 4", v)
			}
			if !bytes.Contains(blob, []byte(`"shards":3`)) {
				t.Fatal("fixture meta does not record a sharded run")
			}
			if _, err := DecodeSnapshot(blob); !errors.Is(err, ErrSnapshotVersion) {
				t.Errorf("decode of a sharded v4 blob: err=%v, want ErrSnapshotVersion", err)
			}
		})
	}
}

// TestShardsOneIsSerial pins that the serial kernel, now the only execution
// of each asynchronous engine, still reproduces the digest recorded before
// sharded execution existed, byte for byte — for a spec that has been
// through the JSON wire form the server and sweep files use, so dropping
// the shards field did not change which experiment a spec names.
func TestShardsOneIsSerial(t *testing.T) {
	for _, name := range []string{"leader", "decentralized"} {
		for _, tp := range goldenTopologies {
			spec := kernelGoldenSpec(tp)
			key := fmt.Sprintf("%s/%s", name, tp.ResolvedLabel(spec.N))
			t.Run(key, func(t *testing.T) {
				if testing.Short() && tp.Kind != TopologyComplete {
					t.Skip("sparse-topology column skipped in -short mode")
				}
				wire, err := json.Marshal(spec)
				if err != nil {
					t.Fatal(err)
				}
				dec := json.NewDecoder(bytes.NewReader(wire))
				dec.DisallowUnknownFields()
				var decoded Spec
				if err := dec.Decode(&decoded); err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), name, decoded)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestResult(res); got != kernelGolden[key] {
					t.Errorf("digest %s != pre-sharding serial golden %s", got, kernelGolden[key])
				}
			})
		}
	}
}
