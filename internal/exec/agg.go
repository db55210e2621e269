package exec

import "math"

// AggKind is the aggregation function of one aggregate call site.
type AggKind uint8

const (
	AggAvg AggKind = iota
	AggSum
	AggCount   // COUNT(*) and COUNT(expr): we have no NULLs, both count rows
	AggCountIf // COUNT_IF(pred)
	AggMin
	AggMax
	AggVar    // VAR(expr): population variance (Section 5 extension)
	AggStdDev // STDDEV(expr)
)

// Acc accumulates one aggregate site for one group. It is the one
// aggregation kernel: the row interpreter and the columnar executor
// (internal/plan) both fold observations through it, so for the same
// per-group observation order their outputs are bit-identical by
// construction.
type Acc struct {
	sumW, sumWX float64
	sumWX2      float64 // weighted sum of squares, for VAR/STDDEV and SE
	sumW2       float64 // Σw², for SE of AVG
	sumW2X      float64 // Σw²x
	sumW2X2     float64 // Σw²x²
	nObs        int64   // number of sampled rows contributing
	minV, maxV  float64
	seen        bool
}

// Accumulate folds one weighted observation, tracking the second-order
// moments the SE estimators need.
func (s *Acc) Accumulate(x, w float64) {
	s.sumW += w
	s.sumWX += w * x
	s.sumWX2 += w * x * x
	s.sumW2 += w * w
	s.sumW2X += w * w * x
	s.sumW2X2 += w * w * x * x
	s.nObs++
}

// Observe folds one value into the MIN/MAX extremes.
func (s *Acc) Observe(x float64) {
	if !s.seen {
		s.minV, s.maxV, s.seen = x, x, true
		return
	}
	if x < s.minV {
		s.minV = x
	}
	if x > s.maxV {
		s.maxV = x
	}
}

// StdErr estimates the standard error of the finalized aggregate using
// the weighted linearization with a finite-population correction
// 1 − k/Σw (exact for simple random sampling within a group; zero when
// the "sample" is the whole population, i.e. unit weights):
//
//	AVG: sqrt(fpc · Σw²(x−x̄)²) / Σw
//	SUM/COUNT/COUNT_IF (totals): sqrt(fpc · (k·Σw²x² − Ŷ²)/(k−1)),
//	  the classical with-replacement PPS estimator for Ŷ = Σwx.
func (s *Acc) StdErr(kind AggKind) float64 {
	if s.nObs == 0 || s.sumW <= 0 {
		return math.NaN()
	}
	fpc := 1 - float64(s.nObs)/s.sumW
	if fpc < 0 {
		fpc = 0
	}
	switch kind {
	case AggAvg:
		mean := s.sumWX / s.sumW
		v := s.sumW2X2 - 2*mean*s.sumW2X + mean*mean*s.sumW2
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v*fpc) / s.sumW
	case AggSum, AggCount, AggCountIf:
		if s.nObs < 2 {
			if fpc == 0 {
				return 0 // single fully-weighted row: no sampling error
			}
			return math.NaN()
		}
		k := float64(s.nObs)
		v := (k*s.sumW2X2 - s.sumWX*s.sumWX) / (k - 1)
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v * fpc)
	default:
		return math.NaN()
	}
}

// Final returns the aggregate's value.
func (s *Acc) Final(kind AggKind) float64 {
	switch kind {
	case AggAvg:
		if s.sumW == 0 {
			return math.NaN()
		}
		return s.sumWX / s.sumW
	case AggSum, AggCount, AggCountIf:
		return s.sumWX
	case AggVar, AggStdDev:
		if s.sumW == 0 {
			return math.NaN()
		}
		mean := s.sumWX / s.sumW
		v := s.sumWX2/s.sumW - mean*mean
		if v < 0 {
			v = 0
		}
		if kind == AggStdDev {
			return math.Sqrt(v)
		}
		return v
	case AggMin:
		if !s.seen {
			return math.NaN()
		}
		return s.minV
	default: // AggMax
		if !s.seen {
			return math.NaN()
		}
		return s.maxV
	}
}
