package rat

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestGcd(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{0, 5, 5},
		{5, 0, 5},
		{12, 18, 6},
		{-12, 18, 6},
		{12, -18, 6},
		{-12, -18, 6},
		{7, 13, 1},
		{1 << 40, 1 << 20, 1 << 20},
	}
	for _, c := range cases {
		if got := Gcd(c.a, c.b); got != c.want {
			t.Errorf("Gcd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGcdAll(t *testing.T) {
	if got := GcdAll(); got != 0 {
		t.Errorf("GcdAll() = %d, want 0", got)
	}
	if got := GcdAll(24, 36, 60); got != 12 {
		t.Errorf("GcdAll(24,36,60) = %d, want 12", got)
	}
	if got := GcdAll(7, 9, 5); got != 1 {
		t.Errorf("GcdAll(7,9,5) = %d, want 1", got)
	}
}

func TestLcm(t *testing.T) {
	cases := []struct {
		a, b, want int64
		ok         bool
	}{
		{0, 5, 0, true},
		{4, 6, 12, true},
		{7, 13, 91, true},
		{1 << 62, 3, 0, false},
	}
	for _, c := range cases {
		got, ok := Lcm(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Lcm(%d,%d) = %d,%v, want %d,%v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestLcmAll(t *testing.T) {
	got, ok := LcmAll(2, 3, 4, 5)
	if !ok || got != 60 {
		t.Errorf("LcmAll(2,3,4,5) = %d,%v, want 60,true", got, ok)
	}
	if got, ok := LcmAll(); !ok || got != 1 {
		t.Errorf("LcmAll() = %d,%v, want 1,true", got, ok)
	}
}

func TestMulAddCheck(t *testing.T) {
	if _, ok := MulCheck(math.MaxInt64, 2); ok {
		t.Error("MulCheck(MaxInt64,2) should overflow")
	}
	for _, c := range [][2]int64{{math.MinInt64, -1}, {-1, math.MinInt64}} {
		if v, ok := MulCheck(c[0], c[1]); ok {
			t.Errorf("MulCheck(%d,%d) = %d, should overflow", c[0], c[1], v)
		}
	}
	if v, ok := MulCheck(math.MinInt64, 1); !ok || v != math.MinInt64 {
		t.Errorf("MulCheck(MinInt64,1) = %d,%v", v, ok)
	}
	// Around the ±2³¹ fast-path edges, and far beyond them, MulCheck
	// agrees with exact big-integer multiplication.
	edges := []int64{0, 1, -1, 2, -2, 3, 1<<31 - 1, 1 << 31, 1<<31 + 1, -1<<31 + 1, -1 << 31, -1<<31 - 1,
		1<<32 - 1, 1 << 32, -1 << 32, 3037000499, 3037000500, -3037000500, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for _, a := range edges {
		for _, b := range edges {
			exact := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
			v, ok := MulCheck(a, b)
			if ok != exact.IsInt64() || ok && v != exact.Int64() {
				t.Errorf("MulCheck(%d,%d) = %d,%v; exact product %s", a, b, v, ok, exact)
			}
		}
	}
	if v, ok := MulCheck(1<<31, 1<<31); !ok || v != 1<<62 {
		t.Errorf("MulCheck(2^31,2^31) = %d,%v", v, ok)
	}
	if _, ok := AddCheck(math.MaxInt64, 1); ok {
		t.Error("AddCheck(MaxInt64,1) should overflow")
	}
	if _, ok := AddCheck(math.MinInt64, -1); ok {
		t.Error("AddCheck(MinInt64,-1) should overflow")
	}
	if v, ok := AddCheck(-5, 3); !ok || v != -2 {
		t.Errorf("AddCheck(-5,3) = %d,%v", v, ok)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, floor, ceil int64 }{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{0, 5, 0, 0},
		{1, 5, 0, 1},
		{-1, 5, -1, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.floor {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
		if got := CeilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
	}
}

func TestFloorCeilTo(t *testing.T) {
	// The ⌊x⌋γ and ⌈x⌉γ operators from Section 3.1 of the paper.
	cases := []struct{ a, g, floor, ceil int64 }{
		{7, 3, 6, 9},
		{-7, 3, -9, -6},
		{9, 3, 9, 9},
		{0, 4, 0, 0},
		{-1, 5, -5, 0},
	}
	for _, c := range cases {
		if got := FloorTo(c.a, c.g); got != c.floor {
			t.Errorf("FloorTo(%d,%d) = %d, want %d", c.a, c.g, got, c.floor)
		}
		if got := CeilTo(c.a, c.g); got != c.ceil {
			t.Errorf("CeilTo(%d,%d) = %d, want %d", c.a, c.g, got, c.ceil)
		}
	}
}

func TestFloorCeilToProperties(t *testing.T) {
	f := func(a int32, g32 uint8) bool {
		g := int64(g32)%64 + 1
		x := int64(a)
		fl, ce := FloorTo(x, g), CeilTo(x, g)
		if fl%g != 0 || ce%g != 0 {
			return false
		}
		if fl > x || ce < x {
			return false
		}
		if x-fl >= g || ce-x >= g {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatBasics(t *testing.T) {
	zero := Rat{}
	if !zero.IsZero() || zero.Sign() != 0 || zero.String() != "0" {
		t.Error("zero Rat misbehaves")
	}
	half := NewRat(1, 2)
	third := NewRat(1, 3)
	if half.Cmp(third) != 1 {
		t.Error("1/2 should exceed 1/3")
	}
	sum := half.Add(third)
	if sum.String() != "5/6" {
		t.Errorf("1/2+1/3 = %s, want 5/6", sum)
	}
	if d := half.Sub(half); !d.IsZero() {
		t.Errorf("1/2-1/2 = %s, want 0", d)
	}
	if p := half.Mul(third); p.String() != "1/6" {
		t.Errorf("1/2*1/3 = %s, want 1/6", p)
	}
	if q := half.Div(third); q.String() != "3/2" {
		t.Errorf("(1/2)/(1/3) = %s, want 3/2", q)
	}
	if inv := third.Inv(); inv.String() != "3" {
		t.Errorf("inv(1/3) = %s, want 3", inv)
	}
	if n := half.Neg(); n.String() != "-1/2" {
		t.Errorf("-1/2 = %s", n)
	}
	if f := half.Float(); f != 0.5 {
		t.Errorf("Float(1/2) = %v", f)
	}
}

func TestRatNormalization(t *testing.T) {
	x := NewRat(4, 8)
	if x.Num().Int64() != 1 || x.Den().Int64() != 2 {
		t.Errorf("4/8 not reduced: %s/%s", x.Num(), x.Den())
	}
	y := NewRat(-6, -8)
	if y.String() != "3/4" {
		t.Errorf("-6/-8 = %s, want 3/4", y)
	}
	z := NewRat(6, -8)
	if z.String() != "-3/4" {
		t.Errorf("6/-8 = %s, want -3/4", z)
	}
}

func TestRatInt64(t *testing.T) {
	if v, ok := FromInt(42).Int64(); !ok || v != 42 {
		t.Errorf("Int64(42) = %d,%v", v, ok)
	}
	if _, ok := NewRat(1, 2).Int64(); ok {
		t.Error("Int64(1/2) should fail")
	}
	if v, ok := (Rat{}).Int64(); !ok || v != 0 {
		t.Errorf("Int64(0) = %d,%v", v, ok)
	}
}

func TestRatFromBig(t *testing.T) {
	br := big.NewRat(22, 7)
	x := FromBig(br)
	br.SetInt64(0) // mutate the source; x must be unaffected
	if x.String() != "22/7" {
		t.Errorf("FromBig detached copy failed: %s", x)
	}
	n, d := big.NewInt(10), big.NewInt(4)
	y := FromBigInts(n, d)
	if y.String() != "5/2" {
		t.Errorf("FromBigInts(10,4) = %s, want 5/2", y)
	}
}

func TestRatFormat(t *testing.T) {
	x := NewRat(1, 3)
	if got := x.Format(4); got != "0.3333" {
		t.Errorf("Format(1/3,4) = %q", got)
	}
	if got := (Rat{}).Format(2); got != "0" {
		t.Errorf("Format(0) = %q", got)
	}
}

func TestRatArithmeticProperties(t *testing.T) {
	mk := func(n int16, d uint8) Rat {
		den := int64(d)%20 + 1
		return NewRat(int64(n), den)
	}
	comm := func(an int16, ad uint8, bn int16, bd uint8) bool {
		a, b := mk(an, ad), mk(bn, bd)
		return a.Add(b).Equal(b.Add(a)) && a.Mul(b).Equal(b.Mul(a))
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(an int16, ad uint8, bn int16, bd uint8, cn int16, cd uint8) bool {
		a, b, c := mk(an, ad), mk(bn, bd), mk(cn, cd)
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	subInverse := func(an int16, ad uint8, bn int16, bd uint8) bool {
		a, b := mk(an, ad), mk(bn, bd)
		return a.Add(b).Sub(b).Equal(a)
	}
	if err := quick.Check(subInverse, nil); err != nil {
		t.Error(err)
	}
}

func TestSumInt64(t *testing.T) {
	if s, ok := SumInt64([]int64{1, 2, 3}); !ok || s != 6 {
		t.Errorf("SumInt64 = %d,%v", s, ok)
	}
	if _, ok := SumInt64([]int64{math.MaxInt64, 1}); ok {
		t.Error("SumInt64 overflow not detected")
	}
	if s, ok := SumInt64(nil); !ok || s != 0 {
		t.Errorf("SumInt64(nil) = %d,%v", s, ok)
	}
}

func TestErrOverflow(t *testing.T) {
	e := &ErrOverflow{Op: "lcm"}
	if e.Error() == "" {
		t.Error("empty error message")
	}
}

func TestGcdRat(t *testing.T) {
	big40 := new(big.Int).Lsh(big.NewInt(1), 40)
	cases := []struct{ x, y, want Rat }{
		{Rat{}, Rat{}, Rat{}},
		{Rat{}, NewRat(-3, 4), NewRat(3, 4)},
		{NewRat(3, 4), Rat{}, NewRat(3, 4)},
		{FromInt(12), FromInt(18), FromInt(6)},
		{NewRat(1, 2), NewRat(1, 3), NewRat(1, 6)},
		{NewRat(3, 4), NewRat(-9, 10), NewRat(3, 20)},
		{NewRat(4, 9), NewRat(10, 3), NewRat(2, 9)},
		// lcm of the denominators leaves int64: the math/big path.
		{NewRat(1, 1<<40), NewRat(2, 847288609443), FromBigInts(big.NewInt(1), new(big.Int).Mul(big40, big.NewInt(847288609443)))},
		// Big operands whose gcd fits again demote to the int64 form.
		{FromBigInts(new(big.Int).Mul(big40, big40), big.NewInt(1)), FromBigInts(new(big.Int).Mul(big40, big.NewInt(6)), big.NewInt(1)), FromBigInts(new(big.Int).Mul(big40, big.NewInt(2)), big.NewInt(1))},
	}
	for _, c := range cases {
		if got := GcdRat(c.x, c.y); got.Cmp(c.want) != 0 {
			t.Errorf("GcdRat(%s, %s) = %s, want %s", c.x, c.y, got, c.want)
		}
	}
	// Defining property on random fractions: x/g and y/g are coprime
	// integers.
	f := func(a, c int32, b, d uint16) bool {
		x, y := NewRat(int64(a), int64(b)+1), NewRat(int64(c), int64(d)+1)
		if x.IsZero() || y.IsZero() {
			return true
		}
		g := GcdRat(x, y)
		p, ok1 := x.Div(g).Int64()
		q, ok2 := y.Div(g).Int64()
		return g.Sign() > 0 && ok1 && ok2 && Gcd(p, q) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatSmall(t *testing.T) {
	cases := []struct {
		x        Rat
		num, den int64
		ok       bool
	}{
		{Rat{}, 0, 1, true},
		{NewRat(6, -4), -3, 2, true},
		{FromInt(7), 7, 1, true},
		{FromInt(math.MinInt64), 0, 0, false},
		{NewRat(1, math.MaxInt64).Mul(NewRat(1, 3)), 0, 0, false},
		// A product whose numerator is exactly MinInt64 is held in big form.
		{NewRat(-1<<62, 1).Mul(FromInt(2)), 0, 0, false},
	}
	for _, c := range cases {
		num, den, ok := c.x.Small()
		if num != c.num || den != c.den || ok != c.ok {
			t.Errorf("%s.Small() = %d, %d, %v; want %d, %d, %v", c.x, num, den, ok, c.num, c.den, c.ok)
		}
		if ok && NewRat(num, den).Cmp(c.x) != 0 {
			t.Errorf("%s.Small() = %d/%d, a different value", c.x, num, den)
		}
	}
	x := NewRat(-5, 7)
	if n := testing.AllocsPerRun(10, func() { x.Small() }); n != 0 {
		t.Errorf("Small allocates %.0f objects", n)
	}
}
