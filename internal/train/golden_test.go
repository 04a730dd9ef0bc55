package train

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"acpsgd/internal/compress"
	"acpsgd/internal/data"
)

var updateGolden = flag.Bool("update", false, "rewrite the trainer golden file")

// TestTrainerGoldenPinned pins the trainer's numerics for every registered
// method and both overlap modes at PipelineChunks=0: each step's loss bits
// and an FNV-1a hash of every rank's final weights. A refactor of the
// collectives or of the worker's seal/drain/finalize path must leave the
// file byte-identical. Regenerate (only for an intended numerics change)
// with
//
//	go test ./internal/train -run TestTrainerGoldenPinned -update
func TestTrainerGoldenPinned(t *testing.T) {
	const steps = 6
	trainSet := data.GaussianMixture(1001, 512, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)
	var out bytes.Buffer
	for _, name := range compress.Names() {
		spec := pipelineSpecFor(name)
		for _, mode := range []Overlap{OverlapOn, OverlapOff} {
			cfg := smokeConfig(spec, mode)
			cfg.Workers = 2
			cfg.BufferBytes = 2 * 1024
			c, err := NewCluster(cfg, build, trainSet)
			if err != nil {
				t.Fatalf("%s/%v: %v", spec, mode, err)
			}
			c.SetLR(0.05)
			initial := weightsHash(c, 0)
			fmt.Fprintf(&out, "%s overlap=%v\n", spec, mode)
			for i, loss := range stepLosses(t, c, steps) {
				fmt.Fprintf(&out, "  step %d loss %016x\n", i, math.Float64bits(loss))
			}
			for r := 0; r < c.Size(); r++ {
				h := weightsHash(c, r)
				if h == initial {
					t.Fatalf("%s/%v: rank %d weights never moved, so the pin would check nothing", spec, mode, r)
				}
				fmt.Fprintf(&out, "  rank %d weights %016x\n", r, h)
			}
			c.Close()
		}
	}
	golden := filepath.Join("testdata", "trainer.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("trainer numerics drifted from %s:\n--- got ---\n%s", golden, out.String())
	}
}

// weightsHash is an FNV-1a hash of the bits of every weight of rank r.
func weightsHash(c *Cluster, r int) uint64 {
	h := fnv.New64a()
	var word [8]byte
	for _, p := range c.Model(r).Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	return h.Sum64()
}
