package innsearch_test

import (
	"testing"

	"innsearch/internal/experiments"
)

// benchConfig sizes the reproduction benchmarks. Each benchmark iteration
// regenerates a full paper table or figure; the reduced N keeps one
// iteration in the hundreds of milliseconds while preserving every
// qualitative relationship (run cmd/experiments for the full-scale
// numbers).
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 7, N: 2000, Queries: 5, GridSize: 32, MaxIterations: 3}
}

// BenchmarkTable1_SyntheticAccuracy regenerates Table 1: precision and
// recall of the interactive search on the Case 1 / Case 2 synthetic
// workloads.
func BenchmarkTable1_SyntheticAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if res.AvgPrec1 == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable2_RealDataAccuracy regenerates Table 2: classification
// accuracy of full-dimensional L2 vs the interactive method on the UCI
// surrogates.
func BenchmarkTable2_RealDataAccuracy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1_LateralPlots regenerates Figure 1's three lateral
// density plots and their separation statistics.
func BenchmarkFigure1_LateralPlots(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9_DensityProfiles regenerates Figure 9's good-vs-poor
// projection density profiles.
func BenchmarkFigure9_DensityProfiles(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10_11_Gradation regenerates Figures 10–11: the per-minor-
// iteration gradation of projection quality.
func BenchmarkFigure10_11_Gradation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure1011(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12_UniformProfile regenerates Figure 12: the flat,
// undiscriminating profile of uniform data.
func BenchmarkFigure12_UniformProfile(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure12(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13_IonosphereProfile regenerates Figure 13: the
// clustered-looking profile of the ionosphere surrogate.
func BenchmarkFigure13_IonosphereProfile(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure13(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteepDrop regenerates the §4.1 steep-drop anatomy (natural
// cluster size vs true cluster size).
func BenchmarkSteepDrop(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSteepDrop(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiagnosis regenerates the §4.2 meaningfulness diagnosis
// (clustered vs uniform).
func BenchmarkDiagnosis(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDiagnosis(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContrastMotivation regenerates the §1.1 dimensionality sweep.
func BenchmarkContrastMotivation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunContrastMotivation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGrading measures the graded-vs-direct subspace
// determination ablation.
func BenchmarkAblationGrading(b *testing.B) {
	cfg := benchConfig()
	cfg.Queries = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationGrading(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAutomated measures the interactive-vs-automated
// baseline comparison.
func BenchmarkAblationAutomated(b *testing.B) {
	cfg := benchConfig()
	cfg.Queries = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationAutomated(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexMotivation regenerates the §1 index-breakdown table
// (R-tree node visits + VA-file refine fraction vs dimensionality).
func BenchmarkIndexMotivation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunVAFileMotivation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNullCalibration regenerates the §3 null-model calibration.
func BenchmarkNullCalibration(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunNullCalibration(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSanityFullDim regenerates the benign full-dimensional no-harm
// check.
func BenchmarkSanityFullDim(b *testing.B) {
	cfg := benchConfig()
	cfg.Queries = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSanityFullDim(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMode measures the projection-family ablation
// (axis / arbitrary / user-refereed auto).
func BenchmarkAblationMode(b *testing.B) {
	cfg := benchConfig()
	cfg.Queries = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationMode(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
