// Package rat provides exact arithmetic helpers used throughout the
// throughput analyses: overflow-checked int64 gcd/lcm, rounding to a
// multiple of a step (the ⌈x⌉γ and ⌊x⌋γ operators of the paper), and a
// small exact rational type backed by int64 with automatic promotion of
// intermediate results through math/big.
//
// The paper's quantities (repetition vectors, token counts, the H weights
// β/(q̃·ĩ) of the bi-valued graph) overflow 64-bit arithmetic on the larger
// industrial graphs (Echo has Σqt ≈ 8·10⁸), so every helper either detects
// overflow and reports it, or routes through math/big.
package rat

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
)

// Gcd returns the non-negative greatest common divisor of a and b.
// Gcd(0, 0) is 0 by convention.
func Gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// GcdAll returns the gcd of all values, 0 for an empty slice.
func GcdAll(vs ...int64) int64 {
	var g int64
	for _, v := range vs {
		g = Gcd(g, v)
		if g == 1 {
			return 1
		}
	}
	return g
}

// Lcm returns the least common multiple of a and b and reports whether the
// computation stayed within int64. Lcm(0, x) is 0.
func Lcm(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	g := Gcd(a, b)
	q := a / g
	return MulCheck(q, b)
}

// LcmAll folds Lcm over all values (1 for an empty slice), reporting
// overflow.
func LcmAll(vs ...int64) (int64, bool) {
	var acc int64 = 1
	for _, v := range vs {
		var ok bool
		acc, ok = Lcm(acc, v)
		if !ok {
			return 0, false
		}
	}
	return acc, true
}

// MulCheck multiplies two int64 values, reporting whether the product fits.
func MulCheck(a, b int64) (int64, bool) {
	// Factors within ±2³¹ cannot overflow, which spares the common case
	// the division below.
	if uint64(a)+1<<31 <= 1<<32 && uint64(b)+1<<31 <= 1<<32 {
		return a * b, true
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	// The division test misses exactly one overflow: MinInt64·(−1) wraps
	// to MinInt64, and MinInt64/(−1) wraps back to MinInt64.
	if p/b != a || b == -1 && a == math.MinInt64 {
		return 0, false
	}
	return p, true
}

// AddCheck adds two int64 values, reporting whether the sum fits.
func AddCheck(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// FloorDiv returns ⌊a/b⌋ for b > 0, correct for negative a.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// CeilDiv returns ⌈a/b⌉ for b > 0, correct for negative a.
func CeilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// FloorTo returns ⌊a⌋γ = ⌊a/γ⌋·γ, the largest multiple of γ that is ≤ a.
// γ must be positive.
func FloorTo(a, gamma int64) int64 {
	return FloorDiv(a, gamma) * gamma
}

// CeilTo returns ⌈a⌉γ = ⌈a/γ⌉·γ, the smallest multiple of γ that is ≥ a.
// γ must be positive.
func CeilTo(a, gamma int64) int64 {
	return CeilDiv(a, gamma) * gamma
}

// Rat is an exact rational number. The zero value is 0. Rat values are
// immutable: all operations return new values, so Rats may be freely copied
// and shared.
//
// Representation: a value that fits is held as a reduced int64 fraction
// num/den with den > 0 (the small form) — construction and arithmetic in
// this regime allocate nothing, which is what keeps the bi-valued graph's
// per-arc H weights off the heap. Values that leave the int64 range are
// promoted to a *big.Rat automatically, and big results that shrink back
// into range are demoted, so chains of operations stay in the fast form
// whenever the magnitudes allow.
type Rat struct {
	// Small form, valid when r == nil: the value is num/den, reduced, with
	// den > 0 and num ≠ MinInt64, so negating num is exact. The zero value
	// (num = 0, den = 0) represents exactly 0.
	num, den int64
	// Big form when non-nil; never holds zero, and never holds a value
	// whose reduced numerator and denominator both fit in int64 (such
	// values are demoted on construction).
	r *big.Rat
}

// smallRat builds the reduced small form for num/den with den > 0 and
// num ≠ 0, falling back to the big form when MinInt64 makes negation or
// reduction unsafe.
func smallRat(num, den int64) Rat {
	if num == math.MinInt64 || den == math.MinInt64 {
		return normBig(big.NewRat(num, den))
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := Gcd(num, den)
	return Rat{num: num / g, den: den / g}
}

// normBig wraps a big.Rat result, demoting it to the small form when it
// fits. The argument is owned by the callee and must not be reused.
func normBig(r *big.Rat) Rat {
	if r.Sign() == 0 {
		return Rat{}
	}
	if n, d := r.Num(), r.Denom(); n.IsInt64() && d.IsInt64() {
		if nn := n.Int64(); nn != math.MinInt64 {
			return Rat{num: nn, den: d.Int64()}
		}
	}
	return Rat{r: r}
}

// asBig views x as a *big.Rat for use as an operand. The result may alias
// x's internal state and must not be mutated.
func (x Rat) asBig() *big.Rat {
	if x.r != nil {
		return x.r
	}
	if x.num == 0 {
		return new(big.Rat)
	}
	return big.NewRat(x.num, x.den)
}

// NewRat returns num/den as an exact rational. den must be non-zero.
func NewRat(num, den int64) Rat {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if num == 0 {
		return Rat{}
	}
	return smallRat(num, den)
}

// FromInt returns v as an exact rational.
func FromInt(v int64) Rat {
	if v == 0 {
		return Rat{}
	}
	if v == math.MinInt64 {
		return Rat{r: big.NewRat(v, 1)}
	}
	return Rat{num: v, den: 1}
}

// FromBig returns a Rat with the value of r.
func FromBig(r *big.Rat) Rat {
	if r == nil || r.Sign() == 0 {
		return Rat{}
	}
	return normBig(new(big.Rat).Set(r))
}

// FromBigInts returns num/den as an exact rational. den must be non-zero.
func FromBigInts(num, den *big.Int) Rat {
	if den.Sign() == 0 {
		panic("rat: zero denominator")
	}
	if num.Sign() == 0 {
		return Rat{}
	}
	r := new(big.Rat).SetFrac(new(big.Int).Set(num), new(big.Int).Set(den))
	return normBig(r)
}

// Small returns x as a reduced int64 fraction num/den with den > 0 and
// num ≠ MinInt64, and ok = false when x is held in big form. Zero is 0/1.
// It allocates nothing, so hot loops can move a whole computation into
// int64 when every operand fits.
func (x Rat) Small() (num, den int64, ok bool) {
	if x.r != nil {
		return 0, 0, false
	}
	if x.num == 0 {
		return 0, 1, true
	}
	return x.num, x.den, true
}

// Big returns a copy of x as a *big.Rat.
func (x Rat) Big() *big.Rat {
	if x.r != nil {
		return new(big.Rat).Set(x.r)
	}
	if x.num == 0 {
		return new(big.Rat)
	}
	return big.NewRat(x.num, x.den)
}

// IsZero reports whether x is exactly zero.
func (x Rat) IsZero() bool { return x.r == nil && x.num == 0 }

// Sign returns -1, 0 or +1 according to the sign of x.
func (x Rat) Sign() int {
	if x.r != nil {
		return x.r.Sign()
	}
	switch {
	case x.num > 0:
		return 1
	case x.num < 0:
		return -1
	}
	return 0
}

// Cmp compares x and y, returning -1, 0 or +1.
func (x Rat) Cmp(y Rat) int {
	if x.IsZero() {
		return -y.Sign()
	}
	if y.IsZero() {
		return x.Sign()
	}
	if x.r == nil && y.r == nil {
		if x.den == y.den {
			switch {
			case x.num < y.num:
				return -1
			case x.num > y.num:
				return 1
			}
			return 0
		}
		a, ok1 := MulCheck(x.num, y.den)
		b, ok2 := MulCheck(y.num, x.den)
		if ok1 && ok2 {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		}
	}
	return x.asBig().Cmp(y.asBig())
}

// Add returns x + y.
func (x Rat) Add(y Rat) Rat {
	if x.IsZero() {
		return y
	}
	if y.IsZero() {
		return x
	}
	if x.r == nil && y.r == nil {
		n1, ok1 := MulCheck(x.num, y.den)
		n2, ok2 := MulCheck(y.num, x.den)
		if ok1 && ok2 {
			if n, ok := AddCheck(n1, n2); ok {
				if n == 0 {
					return Rat{}
				}
				if d, ok := MulCheck(x.den, y.den); ok {
					return smallRat(n, d)
				}
			}
		}
	}
	return normBig(new(big.Rat).Add(x.asBig(), y.asBig()))
}

// Sub returns x - y.
func (x Rat) Sub(y Rat) Rat { return x.Add(y.Neg()) }

// Mul returns x · y.
func (x Rat) Mul(y Rat) Rat {
	if x.IsZero() || y.IsZero() {
		return Rat{}
	}
	if x.r == nil && y.r == nil && x.num != math.MinInt64 && y.num != math.MinInt64 {
		// Cross-reduce before multiplying: the factors are reduced, so the
		// cross-reduced product is reduced too and overflow is rarer.
		g1 := Gcd(x.num, y.den)
		g2 := Gcd(y.num, x.den)
		n, ok1 := MulCheck(x.num/g1, y.num/g2)
		d, ok2 := MulCheck(x.den/g2, y.den/g1)
		if ok1 && ok2 && n != math.MinInt64 {
			return Rat{num: n, den: d}
		}
	}
	return normBig(new(big.Rat).Mul(x.asBig(), y.asBig()))
}

// Div returns x / y. y must be non-zero.
func (x Rat) Div(y Rat) Rat {
	if y.IsZero() {
		panic("rat: division by zero")
	}
	if x.IsZero() {
		return Rat{}
	}
	return x.Mul(y.Inv())
}

// Inv returns 1/x. x must be non-zero.
func (x Rat) Inv() Rat {
	if x.IsZero() {
		panic("rat: inverse of zero")
	}
	if x.r == nil && x.num != math.MinInt64 {
		if x.num < 0 {
			return Rat{num: -x.den, den: -x.num}
		}
		return Rat{num: x.den, den: x.num}
	}
	return normBig(new(big.Rat).Inv(x.asBig()))
}

// Neg returns -x.
func (x Rat) Neg() Rat {
	if x.IsZero() {
		return x
	}
	if x.r == nil && x.num != math.MinInt64 {
		return Rat{num: -x.num, den: x.den}
	}
	return normBig(new(big.Rat).Neg(x.asBig()))
}

// Float returns the nearest float64 to x.
func (x Rat) Float() float64 {
	if x.r != nil {
		f, _ := x.r.Float64()
		return f
	}
	if x.num == 0 {
		return 0
	}
	const exact = 1 << 53
	if (x.num < exact && x.num > -exact) && x.den < exact {
		// Both convert exactly; the division rounds once, correctly.
		return float64(x.num) / float64(x.den)
	}
	f, _ := big.NewRat(x.num, x.den).Float64()
	return f
}

// Num returns a copy of the numerator of x in lowest terms.
func (x Rat) Num() *big.Int {
	if x.r != nil {
		return new(big.Int).Set(x.r.Num())
	}
	return big.NewInt(x.num)
}

// Den returns a copy of the denominator of x in lowest terms (always > 0).
func (x Rat) Den() *big.Int {
	if x.r != nil {
		return new(big.Int).Set(x.r.Denom())
	}
	if x.num == 0 {
		return big.NewInt(1)
	}
	return big.NewInt(x.den)
}

// String formats x as "num/den", or "num" when the denominator is 1.
func (x Rat) String() string {
	if x.r != nil {
		if x.r.IsInt() {
			return x.r.Num().String()
		}
		return x.r.RatString()
	}
	if x.num == 0 {
		return "0"
	}
	if x.den == 1 {
		return strconv.FormatInt(x.num, 10)
	}
	return strconv.FormatInt(x.num, 10) + "/" + strconv.FormatInt(x.den, 10)
}

// Format renders x as a decimal with the given number of fractional digits.
func (x Rat) Format(digits int) string {
	if x.IsZero() {
		return "0"
	}
	return x.asBig().FloatString(digits)
}

// Int64 returns x as an int64 if x is an integer fitting in 64 bits.
func (x Rat) Int64() (int64, bool) {
	if x.r != nil {
		if !x.r.IsInt() || !x.r.Num().IsInt64() {
			return 0, false
		}
		return x.r.Num().Int64(), true
	}
	if x.num == 0 {
		return 0, true
	}
	if x.den != 1 {
		return 0, false
	}
	return x.num, true
}

// GcdRat returns the greatest common divisor of x and y as rationals: the
// largest g > 0 such that x/g and y/g are both integers, which for
// x = a/b and y = c/d in lowest terms is gcd(a, c)/lcm(b, d). Dividing a
// vector of rationals by the GcdRat of its entries yields the smallest
// proportional integer vector. GcdRat(0, y) is |y|.
func GcdRat(x, y Rat) Rat {
	if x.Sign() < 0 {
		x = x.Neg()
	}
	if y.Sign() < 0 {
		y = y.Neg()
	}
	if x.IsZero() {
		return y
	}
	if y.IsZero() {
		return x
	}
	if x.r == nil && y.r == nil {
		// The result is reduced: a prime dividing lcm(b, d) divides b or
		// d, hence not a or c respectively.
		if l, ok := Lcm(x.den, y.den); ok {
			return Rat{num: Gcd(x.num, y.num), den: l}
		}
	}
	xb, yb := x.asBig(), y.asBig()
	num := new(big.Int).GCD(nil, nil, xb.Num(), yb.Num())
	g := new(big.Int).GCD(nil, nil, xb.Denom(), yb.Denom())
	den := new(big.Int).Quo(xb.Denom(), g)
	den.Mul(den, yb.Denom())
	return normBig(new(big.Rat).SetFrac(num, den))
}

// Equal reports whether x and y are the same rational.
func (x Rat) Equal(y Rat) bool { return x.Cmp(y) == 0 }

// SumInt64 adds a slice of int64 and reports overflow.
func SumInt64(vs []int64) (int64, bool) {
	var s int64
	for _, v := range vs {
		var ok bool
		s, ok = AddCheck(s, v)
		if !ok {
			return 0, false
		}
	}
	return s, true
}

// ErrOverflow reports that a quantity left the int64 range.
type ErrOverflow struct {
	Op string
}

func (e *ErrOverflow) Error() string {
	return fmt.Sprintf("rat: int64 overflow in %s", e.Op)
}
