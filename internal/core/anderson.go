package core

import (
	"math"

	"github.com/nettheory/feedbackflow/internal/linalg"
)

// The accelerated solve's constants (docs/MODEL.md, "Accelerated
// solve"). They are fixed, not options: a scenario's answer must not
// depend on a tuning knob.
const (
	// andersonMemory is how many difference pairs the least-squares
	// fit uses.
	andersonMemory = 5
	// andersonWarmup is how many plain updates precede the first
	// extrapolated one.
	andersonWarmup = 20
	// guardProbes is how many Arnoldi steps the stability guard takes.
	guardProbes = 12
	// andersonDrop is the relative Cholesky pivot below which a
	// difference column counts as dependent on the newer ones and is
	// left out of the fit.
	andersonDrop = 1e-10
	// guardStep is the finite-difference step of the guard's
	// Jacobian-vector products, relative to 1 + max rate.
	guardStep = 1e-7
)

// anderson is a workspace's extrapolation state: Anderson acceleration
// (type II) of the fixed-point map x ↦ F(x) over the last
// andersonMemory differences of f = F(x) − x and of g = F(x), with
// inner products weighted by the system's connection weights. Every
// buffer is sized once, so an accelerated step allocates nothing.
type anderson struct {
	weights []float64 // the system's weights; nil is unit
	// df and dg are rings of difference columns: slot head−1 (mod
	// andersonMemory) is the newest, and cols slots are live.
	df, dg     [andersonMemory][]float64
	head, cols int
	// gram[j][k] = ⟨df[j], df[k]⟩ over the live slots.
	gram [andersonMemory][andersonMemory]float64
	// f and g are the last pushed f(x) and F(x); primed says they are
	// set, so the next push forms a difference.
	f, g   []float64
	primed bool
	// applied counts the extrapolated updates of the run, and start is
	// f at the first of them: the guard's Arnoldi start vector.
	applied int
	start   []float64
	// basis holds the guard's Arnoldi vectors and probe is its
	// perturbed point; fx is F at the point under test.
	basis     [guardProbes + 1][]float64
	probe, fx []float64
}

// newAnderson sizes the extrapolation state for n connections of the
// given weights.
func newAnderson(n int, weights []float64) *anderson {
	// The df and dg rings, the Arnoldi basis, and f, g, start, probe
	// and fx.
	const vectors = 2*andersonMemory + guardProbes + 1 + 5
	a := &anderson{weights: weights}
	buf := make([]float64, vectors*n)
	next := func() []float64 {
		v := buf[:n:n]
		buf = buf[n:]
		return v
	}
	for j := range a.df {
		a.df[j], a.dg[j] = next(), next()
	}
	for j := range a.basis {
		a.basis[j] = next()
	}
	a.f, a.g, a.start, a.probe, a.fx = next(), next(), next(), next(), next()
	return a
}

// reset prepares the state for a new run.
func (a *anderson) reset() {
	a.clear()
	a.primed = false
	a.applied = 0
}

// clear drops the difference history. The last pushed pair stays, so
// the next push starts a new history from it.
func (a *anderson) clear() { a.head, a.cols = 0, 0 }

// dot is the weighted inner product Σ w_i x_i y_i, summed in four
// interleaved partial sums so that the additions do not wait on each
// other. A weight of 1 multiplies exactly, so a unit-weight system
// extrapolates bit for bit as its unweighted twin.
//
//ffc:hotpath
func (a *anderson) dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	if w := a.weights; w != nil {
		w = w[:len(x)]
		for ; i+4 <= len(x); i += 4 {
			s0 += w[i] * x[i] * y[i]
			s1 += w[i+1] * x[i+1] * y[i+1]
			s2 += w[i+2] * x[i+2] * y[i+2]
			s3 += w[i+3] * x[i+3] * y[i+3]
		}
		for ; i < len(x); i++ {
			s0 += w[i] * x[i] * y[i]
		}
		return (s0 + s1) + (s2 + s3)
	}
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// push records the plain update g = F(x) at x: the difference from the
// last pushed pair becomes the newest column, and the Gram matrix
// gains its row.
//
//ffc:hotpath
func (a *anderson) push(x, g []float64) {
	col := a.head
	n := len(g)
	x, df, dg, f, pg := x[:n], a.df[col][:n], a.dg[col][:n], a.f[:n], a.g[:n]
	for i, gi := range g {
		fi := gi - x[i]
		df[i], dg[i] = fi-f[i], gi-pg[i]
		f[i], pg[i] = fi, gi
	}
	if !a.primed {
		a.primed = true
		return
	}
	a.head = (col + 1) % andersonMemory
	if a.cols < andersonMemory {
		a.cols++
	}
	for k := 0; k < a.cols; k++ {
		j := (col - k + andersonMemory) % andersonMemory
		a.gram[col][j] = a.dot(df, a.df[j])
		a.gram[j][col] = a.gram[col][j]
	}
}

// extrapolate writes the candidate x' = g − ΔG·γ into dst, where g =
// F(x) is the last pushed update and γ minimizes ‖f − ΔF·γ‖ over the
// live columns, and reports whether dst may be applied. It may not —
// and the history is cleared — when the candidate is not finite or
// sends a positive g_i to 0 or below. A connection with g_i = 0 stays
// at 0. With no usable column there is no candidate and the history
// stays.
//
//ffc:hotpath
func (a *anderson) extrapolate(dst []float64) bool {
	// Columns newest first: a column that the newer ones already span
	// is dropped from the fit.
	var (
		idx   [andersonMemory]int
		l     [andersonMemory][andersonMemory]float64
		gamma [andersonMemory]float64
	)
	m := a.cols
	for k := 0; k < m; k++ {
		idx[k] = (a.head - 1 - k + 2*andersonMemory) % andersonMemory
	}
	// Cholesky factor of the Gram matrix, L·Lᵀ, dropping a column whose
	// pivot falls below andersonDrop of its diagonal; a dropped
	// column's row and column of L stay zero.
	used := 0
	for k := 0; k < m; k++ {
		diag := a.gram[idx[k]][idx[k]]
		d := diag
		for p := 0; p < k; p++ {
			d -= l[k][p] * l[k][p]
		}
		if !(d > andersonDrop*diag) {
			continue
		}
		l[k][k] = math.Sqrt(d)
		for i := k + 1; i < m; i++ {
			s := a.gram[idx[i]][idx[k]]
			for p := 0; p < k; p++ {
				s -= l[i][p] * l[k][p]
			}
			l[i][k] = s / l[k][k]
		}
		used++
	}
	if used == 0 {
		return false
	}
	// Solve L·Lᵀ·γ = ΔFᵀ·f over the kept columns.
	for k := 0; k < m; k++ {
		if l[k][k] == 0 {
			continue
		}
		s := a.dot(a.df[idx[k]], a.f)
		for p := 0; p < k; p++ {
			s -= l[k][p] * gamma[p]
		}
		gamma[k] = s / l[k][k]
	}
	for k := m - 1; k >= 0; k-- {
		if l[k][k] == 0 {
			continue
		}
		s := gamma[k]
		for p := k + 1; p < m; p++ {
			s -= l[p][k] * gamma[p]
		}
		gamma[k] = s / l[k][k]
	}
	copy(dst, a.g)
	for k := 0; k < m; k++ {
		if c := gamma[k]; c != 0 {
			dg := a.dg[idx[k]]
			dst := dst[:len(dg)]
			for i, d := range dg {
				dst[i] -= c * d
			}
		}
	}
	for i, gi := range a.g {
		if gi == 0 {
			dst[i] = 0
		} else if v := dst[i]; !(v > 0) || math.IsInf(v, 1) {
			a.clear()
			return false
		}
	}
	if a.applied == 0 {
		copy(a.start, a.f)
	}
	a.applied++
	return true
}

// stable is the accelerated solve's guard: it estimates the spectral
// radius of DF at the converged point x over x's interior rows (r_i >
// 0; a clamped row cannot move) from guardProbes Arnoldi steps of
// finite-difference Jacobian-vector products, started from the
// residual at the run's first extrapolated update, and reports whether
// it is below 1. An extrapolated run may have reached a fixed point
// that the plain iteration is repelled from; such a run is refused.
// Any failure to evaluate F refuses too.
func (w *Workspace) stable(x []float64) bool {
	a := w.acc
	if _, _, err := w.stepInto(x, a.fx); err != nil {
		return false
	}
	interior, maxRate := 0, 0.0
	for _, v := range x {
		if v > 0 {
			interior++
		}
		if v > maxRate {
			maxRate = v
		}
	}
	v0 := a.basis[0]
	for i, v := range a.start {
		if x[i] > 0 {
			v0[i] = v
		} else {
			v0[i] = 0
		}
	}
	beta := math.Sqrt(a.dot(v0, v0))
	if beta == 0 {
		return true // no interior direction to grow along
	}
	scale(v0, 1/beta)
	var h [guardProbes + 1][guardProbes]float64
	k := 0
	for j := 0; j < guardProbes && j < interior; j++ {
		v, u := a.basis[j], a.basis[j+1]
		norm := 0.0
		for _, vi := range v {
			if vi = math.Abs(vi); vi > norm {
				norm = vi
			}
		}
		step := guardStep * (1 + maxRate) / norm
		for i, xi := range x {
			if p := xi + step*v[i]; p > 0 {
				a.probe[i] = p
			} else {
				a.probe[i] = 0
			}
		}
		if _, _, err := w.stepInto(a.probe, u); err != nil {
			return false
		}
		inv := 1 / step
		for i, xi := range x {
			if xi > 0 {
				u[i] = (u[i] - a.fx[i]) * inv
			} else {
				u[i] = 0
			}
		}
		// Modified Gram–Schmidt against the basis so far.
		before := math.Sqrt(a.dot(u, u))
		for p := 0; p <= j; p++ {
			b := a.basis[p]
			c := a.dot(u, b)
			h[p][j] = c
			u := u[:len(b)]
			for i, bi := range b {
				u[i] -= c * bi
			}
		}
		after := math.Sqrt(a.dot(u, u))
		h[j+1][j] = after
		k = j + 1
		if !(after > 1e-6*before) {
			break // the Krylov space is exhausted
		}
		scale(u, 1/after)
	}
	hk := linalg.NewMatrix(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			hk.Set(i, j, h[i][j])
		}
	}
	rho, err := linalg.SpectralRadius(hk)
	return err == nil && rho < 1
}

// scale multiplies v by c in place.
func scale(v []float64, c float64) {
	for i := range v {
		v[i] *= c
	}
}
