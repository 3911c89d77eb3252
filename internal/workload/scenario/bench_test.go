package scenario

import (
	"testing"

	"reservoir/internal/workload"
)

// benchMeanLen is the node-mode benchmark's mean batch length per PE.
const benchMeanLen = 50_000

// BenchmarkFillWeights times the weight fill the skip scans run over every
// batch, per preset, and reports it per item.
func BenchmarkFillWeights(b *testing.B) {
	for _, spec := range Presets() {
		b.Run(spec.Name, func(b *testing.B) {
			src, err := spec.Source(7, benchMeanLen)
			if err != nil {
				b.Fatal(err)
			}
			batch := src.NextBatch(0, 1)
			if batch.Len() == 0 {
				b.Fatal("empty batch")
			}
			dst := make([]float64, batch.Len())
			for b.Loop() {
				workload.FillWeights(batch, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/item")
		})
	}
}

// BenchmarkSourceCompile times compiling the Zipf preset, which a node-mode
// round does once per rank plus once to validate the request.
func BenchmarkSourceCompile(b *testing.B) {
	spec, _ := Preset("zipf_hot")
	for b.Loop() {
		if _, err := spec.Source(7, benchMeanLen); err != nil {
			b.Fatal(err)
		}
	}
}
