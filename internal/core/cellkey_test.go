package core

import (
	"strings"
	"testing"

	"lossyts/internal/compress"
)

// TestRecordKeyFormatPinned pins the schema-2 store-key rendering byte for
// byte. Cell and dataset records written before the nn kernel mode stopped
// being an option carry "ref=false" in their keys; a drift here would
// silently orphan every existing store and session checkpoint.
func TestRecordKeyFormatPinned(t *testing.T) {
	const want = "cell|s2;sc=0.03;seed=1;ds=1;ss=1;mw=48;ref=false;" +
		"fc={InputLen:96 Horizon:24 SeasonalPeriod:96 Seed:0 Epochs:8 BatchSize:32 LR:0.001 " +
		"WeightDecay:0.0001 Patience:3 Dropout:0.05 HiddenSize:32 MaxTrainWindows:256 UpdateEpochs:0}" +
		"|ETTm1|PMC|0.05"
	opts := DefaultOptions()
	if got := opts.CellKey("ETTm1", compress.MethodPMC, 0.05).String(); got != want {
		t.Fatalf("cell key\n got %s\nwant %s", got, want)
	}
	wantDataset := "dataset|" + strings.TrimPrefix(strings.TrimSuffix(want, "|PMC|0.05"), "cell|")
	if got := opts.datasetRecordKey("ETTm1"); got != wantDataset {
		t.Fatalf("dataset key\n got %s\nwant %s", got, wantDataset)
	}
}
