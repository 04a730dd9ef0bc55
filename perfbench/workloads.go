package main

import (
	"fmt"
	"math/rand"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/models"
	"acpsgd/internal/nn"
	"acpsgd/internal/train"
)

// The task every workload trains: a deep MLP on a Gaussian mixture whose
// noise puts the target accuracy in the middle of a run rather than at the
// first evaluation.
const (
	workers  = 2
	features = 64
	classes  = 10
	hidden   = 256
	depth    = 6
	noise    = 5.0
	nTrain   = 8192
	nTest    = 512
	lr       = 0.003
	momentum = 0.9
	// target is the test accuracy tta_s measures the time to; floor is the
	// lowest acceptable final_test_acc, below the target so that only a
	// collapse after reaching it fails the check.
	target = 0.5
	floor  = 0.45
)

// workload is one named configuration of the training step. Each one
// drives the shared layers (comm, compress, train, elastic) a different
// way; BENCHMARK.json and README.md record why each is included.
type workload struct {
	name string
	spec string
	// batch is the per-worker batch size.
	batch int
	tcp   bool
	// paceBytesPerSec wraps the in-process transports in one shared
	// bandwidth pacer per group (0 = unpaced).
	paceBytesPerSec float64
	chunks          int
	elastic         bool
}

var workloads = []workload{
	// The paper's headline setting: low-rank encode, small paced ring
	// all-reduces that overlap must hide, elastic checkpoints.
	{
		name:            "acp-slowlink",
		spec:            "acp",
		batch:           32,
		paceBytesPerSec: 30e6,
		elastic:         true,
	},
	// The uncompressed baseline: raw gradients through TCP framing.
	{
		name:  "ssgd-tcp",
		spec:  "ssgd",
		batch: 8,
		tcp:   true,
	},
	// The all-gather pattern: sparse selection, chunked decode, pipelined
	// gather; compute dominates.
	{
		name:   "topk-gather",
		spec:   "topk",
		batch:  32,
		chunks: 4,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// dims is the MLP's layer widths: features → hidden×depth → classes.
func dims() []int {
	d := []int{features}
	for i := 0; i < depth; i++ {
		d = append(d, hidden)
	}
	return append(d, classes)
}

func buildModel(rng *rand.Rand) *nn.Model { return models.MLP(rng, dims()...) }

// datasets generates the train and test split for one seed.
func datasets(seed int64) (*data.Dataset, *data.Dataset, error) {
	all := data.GaussianMixture(seed, nTrain+nTest, features, classes, noise)
	return all.Split(nTrain)
}

// newTransports builds one group of the workload's transports: loopback
// TCP, or in-process channels (paced through one shared pacer when the
// workload sets a rate). A non-nil counter wraps every rank outermost, so
// it sees application bytes and the time blocked in the paced wire.
func (w workload) newTransports(p int, counter *wireCounter) ([]comm.Transport, error) {
	var ts []comm.Transport
	var err error
	if w.tcp {
		ts, err = comm.NewTCPGroup(p)
	} else {
		ts, err = comm.NewInprocGroup(p, 0)
	}
	if err != nil {
		return nil, err
	}
	if w.paceBytesPerSec > 0 {
		pacer := comm.NewBandwidthPacer(w.paceBytesPerSec)
		for i, t := range ts {
			ts[i] = pacer.Wrap(t)
		}
	}
	if counter != nil {
		for i, t := range ts {
			ts[i] = &countingTransport{Transport: t, c: counter}
		}
	}
	return ts, nil
}

// config is the training configuration of one cluster of the workload.
func (w workload) config(seed int64, p int, counter *wireCounter) (train.Config, error) {
	spec, err := compress.ParseSpec(w.spec)
	if err != nil {
		return train.Config{}, err
	}
	return train.Config{
		Spec:           spec,
		Workers:        p,
		BatchPerWorker: w.batch,
		Epochs:         1,
		Momentum:       momentum,
		PipelineChunks: w.chunks,
		Elastic:        train.ElasticConfig{Enabled: w.elastic},
		Seed:           seed,
		NewTransports: func(n int) ([]comm.Transport, error) {
			return w.newTransports(n, counter)
		},
	}, nil
}
