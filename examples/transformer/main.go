// Transformer convergence demo: train the MiniTransformer (embedding +
// self-attention + position-wise FFN, the BERT-family stand-in) on the
// synthetic sequence-classification task with S-SGD and ACP-SGD, showing
// the accuracy parity the paper reports for transformers at modest ranks.
package main

import (
	"flag"
	"fmt"
	"log"

	"acpsgd/internal/core"
)

func main() {
	epochs := flag.Int("epochs", 10, "training epochs")
	workers := flag.Int("workers", 4, "data-parallel workers")
	rank := flag.Int("rank", 4, "Power-SGD and ACP-SGD rank")
	flag.Parse()

	for _, m := range []struct{ label, spec string }{
		{"ssgd", "ssgd"},
		{"power", fmt.Sprintf("power:rank=%d", *rank)},
		{"acp", fmt.Sprintf("acp:rank=%d", *rank)},
	} {
		hist, err := core.Train(core.TrainConfig{
			Method:         m.spec,
			Model:          "minitransformer",
			Workers:        *workers,
			BatchPerWorker: 16,
			Epochs:         *epochs,
			LR:             0.02,
			WarmupEpochs:   1,
			DecayEpochs:    []int{*epochs / 2, *epochs * 3 / 4},
			TrainExamples:  1024,
			TestExamples:   256,
			Classes:        4,
		})
		if err != nil {
			log.Fatalf("%s: %v", m.spec, err)
		}
		fmt.Printf("%-6s  final accuracy %.1f%%  (loss %.3f)\n",
			m.label, 100*hist.FinalTestAcc, hist.Stats[len(hist.Stats)-1].TrainLoss)
	}
}
