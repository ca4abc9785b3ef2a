package linalg

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// updateEigenGolden regenerates the eigenpair golden instead of comparing
// against it: go test ./internal/linalg -run EigenGolden -update-eigen-golden
var updateEigenGolden = flag.Bool("update-eigen-golden", false, "rewrite the SymEigen eigenpair golden")

const eigenGoldenPath = "testdata/eigen_golden.txt.gz"

// eigenGoldenCase is one pinned SymEigen input.
type eigenGoldenCase struct {
	name string
	a    *Matrix
}

// goldenCovariance returns the sample covariance of 3n+2 rows z·B, with z
// and B standard normal: a dense, fully correlated covariance like the
// engine's query-cluster covariances. The two-pass arithmetic is written
// out here, not taken from Matrix.Covariance, so the golden's inputs are
// pinned by this file alone.
func goldenCovariance(n, m int, seed int64) *Matrix {
	r := rand.New(rand.NewSource(seed))
	b := make([]float64, n*n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	x := make([]float64, m*n)
	z := make([]float64, n)
	for s := 0; s < m; s++ {
		for k := range z {
			z[k] = r.NormFloat64()
		}
		for j := 0; j < n; j++ {
			var v float64
			for k := 0; k < n; k++ {
				v += z[k] * b[k*n+j]
			}
			x[s*n+j] = v
		}
	}
	mean := make([]float64, n)
	for s := 0; s < m; s++ {
		for j := 0; j < n; j++ {
			mean[j] += x[s*n+j]
		}
	}
	for j := range mean {
		mean[j] /= float64(m)
	}
	cov := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var v float64
			for s := 0; s < m; s++ {
				v += (x[s*n+i] - mean[i]) * (x[s*n+j] - mean[j])
			}
			v /= float64(m - 1)
			cov.Data[i*n+j] = v
			cov.Data[j*n+i] = v
		}
	}
	return cov
}

// eigenGoldenCases lists the pinned inputs: dense covariances at the
// dimensions the projection search visits for d = 64 (d, d/2, … and the
// complement dimensions 62) × 5 seeds, plus a diagonal matrix (no
// rotation fires), a rank-deficient covariance (16 dimensions from 6
// samples) and 2I + 11ᵀ (eigenvalue 2 repeated five times).
func eigenGoldenCases() []eigenGoldenCase {
	var cases []eigenGoldenCase
	for _, n := range []int{1, 2, 5, 16, 32, 62, 64} {
		for seed := int64(1); seed <= 5; seed++ {
			cases = append(cases, eigenGoldenCase{
				name: fmt.Sprintf("cov-n%d-seed%d", n, seed),
				a:    goldenCovariance(n, 3*n+2, 100*int64(n)+seed),
			})
		}
	}
	diag := NewMatrix(8, 8)
	for i, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		diag.Set(i, i, v)
	}
	repeated := NewMatrix(6, 6)
	for i := range repeated.Data {
		repeated.Data[i] = 1
	}
	for i := 0; i < 6; i++ {
		repeated.Set(i, i, 3)
	}
	return append(cases,
		eigenGoldenCase{name: "diagonal-n8", a: diag},
		eigenGoldenCase{name: "rank-deficient-n16", a: goldenCovariance(16, 6, 7)},
		eigenGoldenCase{name: "repeated-n6", a: repeated},
	)
}

// formatEigenGolden renders every case's eigenpairs as Float64bits: a
// "case" header, then one line of eigenvalues and one line per
// eigenvector, each entry 16 hex digits.
func formatEigenGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	line := func(xs []float64) {
		for i, x := range xs {
			if i > 0 {
				buf.WriteByte(' ')
			}
			fmt.Fprintf(&buf, "%016x", math.Float64bits(x))
		}
		buf.WriteByte('\n')
	}
	for _, c := range eigenGoldenCases() {
		res, err := SymEigen(c.a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&buf, "case %s %d\n", c.name, c.a.Rows)
		line(res.Values)
		for _, v := range res.Vectors {
			line(v)
		}
	}
	return buf.Bytes()
}

// TestSymEigenGolden pins the solver's bits: every eigenvalue and every
// eigenvector entry of each golden case must equal, as Float64bits, what
// the recorded solver produced. The projection search's directions — and
// so every session Result in ModeArbitrary — are functions of these bits.
func TestSymEigenGolden(t *testing.T) {
	got := formatEigenGolden(t)
	path := filepath.FromSlash(eigenGoldenPath)
	if *updateEigenGolden {
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		if _, err := zw.Write(got); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, z.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Report the first differing entry with its case and position.
	gs, ws := bufio.NewScanner(bytes.NewReader(got)), bufio.NewScanner(bytes.NewReader(want))
	gs.Buffer(nil, 1<<20)
	ws.Buffer(nil, 1<<20)
	var cur string
	row := 0
	for gs.Scan() && ws.Scan() {
		g, w := gs.Text(), ws.Text()
		if strings.HasPrefix(w, "case ") {
			cur, row = w, -1
		}
		if g != w {
			gf, wf := strings.Fields(g), strings.Fields(w)
			for i := range min(len(gf), len(wf)) {
				if gf[i] != wf[i] {
					gb, _ := strconv.ParseUint(gf[i], 16, 64)
					wb, _ := strconv.ParseUint(wf[i], 16, 64)
					t.Fatalf("%s: line %d (0 = eigenvalues, k = eigenvector k−1) entry %d: got %v (%s), want %v (%s)",
						cur, row, i, math.Float64frombits(gb), gf[i], math.Float64frombits(wb), wf[i])
				}
			}
			t.Fatalf("%s: line %d: got %q, want %q", cur, row, g, w)
		}
		row++
	}
	t.Fatalf("golden length differs: got %d bytes, want %d", len(got), len(want))
}
