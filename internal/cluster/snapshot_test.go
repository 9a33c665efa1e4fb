package cluster

import (
	"reflect"
	"testing"

	"plurality/internal/snap"
)

// TestFormCheckpointRoundtrip pins that cluster formation itself can be
// captured mid-flight and restored to an identical outcome.
func TestFormCheckpointRoundtrip(t *testing.T) {
	base := Params{N: 600, Seed: 4}
	plain, err := Form(base)
	if err != nil {
		t.Fatal(err)
	}

	var blob []byte
	ckpt := base
	ckpt.Ckpt = &snap.Checkpoint{
		At:   plain.EndTime / 2,
		Halt: true,
		Sink: func(state []byte, _ float64, _ uint64) { blob = append([]byte(nil), state...) },
	}
	halted, err := Form(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no snapshot captured")
	}
	if halted.EndTime >= plain.EndTime {
		t.Fatalf("halted formation reached %v, want < %v", halted.EndTime, plain.EndTime)
	}

	resumed := base
	resumed.Ckpt = &snap.Checkpoint{Restore: blob}
	res, err := Form(resumed)
	if err != nil {
		t.Fatal(err)
	}
	res.Topo, plain.Topo = nil, nil
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("resumed clustering differs from uninterrupted formation:\nresumed: %+v\nplain:   %+v", res, plain)
	}
}

// TestClusteringCodecRoundtrip pins the canonical Clustering encoding the
// decentralized engine's snapshots embed.
func TestClusteringCodecRoundtrip(t *testing.T) {
	cl, err := Form(Params{N: 400, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	w := &snap.Writer{}
	EncodeClustering(w, cl)
	first := append([]byte(nil), w.Bytes()...)

	got, err := DecodeClustering(snap.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	want := *cl
	want.Topo = nil
	if !reflect.DeepEqual(got, &want) {
		t.Error("decoded clustering differs from the original")
	}

	// Canonical: encoding twice yields identical bytes.
	w2 := &snap.Writer{}
	EncodeClustering(w2, got)
	if !reflect.DeepEqual(first, w2.Bytes()) {
		t.Error("re-encoding a decoded clustering changed the bytes")
	}

	// Truncations must fail typed, never panic.
	for _, cut := range []int{0, 3, len(first) / 2, len(first) - 1} {
		if _, err := DecodeClustering(snap.NewReader(first[:cut])); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded, want error", cut, len(first))
		}
	}
}

// TestBroadcastCheckpointRoundtrip pins capture/restore of the §4.2 leader
// broadcast.
func TestBroadcastCheckpointRoundtrip(t *testing.T) {
	cl, err := Form(Params{N: 600, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Broadcast(cl, nil, 31, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CompleteTime <= 0 {
		t.Skip("broadcast completed instantly; nothing to checkpoint")
	}

	var blob []byte
	ck := &snap.Checkpoint{
		At:   plain.CompleteTime / 2,
		Halt: true,
		Sink: func(state []byte, _ float64, _ uint64) { blob = append([]byte(nil), state...) },
	}
	if _, err := Broadcast(cl, nil, 31, 0, ck); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no snapshot captured")
	}
	res, err := Broadcast(cl, nil, 31, 0, &snap.Checkpoint{Restore: blob})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("resumed broadcast differs from uninterrupted run:\nresumed: %+v\nplain:   %+v", res, plain)
	}
}
