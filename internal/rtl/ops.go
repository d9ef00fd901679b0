package rtl

import "math"

// The operators and builtins that cannot fail, written once and shared
// by the interpreter (eval.go) and the compiler (compile.go).

// binOps are the binary operators over 64-bit values; comparisons
// are signed.
var binOps = map[string]func(a, b uint64) uint64{
	"+":  func(a, b uint64) uint64 { return a + b },
	"-":  func(a, b uint64) uint64 { return a - b },
	"*":  func(a, b uint64) uint64 { return a * b },
	"&":  func(a, b uint64) uint64 { return a & b },
	"|":  func(a, b uint64) uint64 { return a | b },
	"^":  func(a, b uint64) uint64 { return a ^ b },
	"<<": func(a, b uint64) uint64 { return a << (b & 63) },
	">>": func(a, b uint64) uint64 { return a >> (b & 63) },
	"==": func(a, b uint64) uint64 { return b2u(a == b) },
	"!=": func(a, b uint64) uint64 { return b2u(a != b) },
	"<":  func(a, b uint64) uint64 { return b2u(int64(a) < int64(b)) },
	"<=": func(a, b uint64) uint64 { return b2u(int64(a) <= int64(b)) },
	">":  func(a, b uint64) uint64 { return b2u(int64(a) > int64(b)) },
	">=": func(a, b uint64) uint64 { return b2u(int64(a) >= int64(b)) },
}

// unOps are the unary operators.
var unOps = map[string]func(uint64) uint64{
	"-": func(a uint64) uint64 { return -a },
	"~": func(a uint64) uint64 { return ^a },
	"!": func(a uint64) uint64 { return b2u(a == 0) },
}

// builtins1 and builtins2 are the one- and two-argument builtins.
var builtins1 = map[string]func(uint64) uint64{
	"sexb":     func(v uint64) uint64 { return signExtend(v, 8) },
	"sexh":     func(v uint64) uint64 { return signExtend(v, 16) },
	"cc_logic": func(v uint64) uint64 { return ccLogic(uint32(v)) },
	"fneg":     func(v uint64) uint64 { return u32(math.Float32bits(-math.Float32frombits(uint32(v)))) },
	"fabs": func(v uint64) uint64 {
		return u32(math.Float32bits(float32(math.Abs(float64(math.Float32frombits(uint32(v)))))))
	},
	"fitos": func(v uint64) uint64 { return u32(math.Float32bits(float32(int32(uint32(v))))) },
	"fstoi": func(v uint64) uint64 { return u32(uint32(int32(math.Float32frombits(uint32(v))))) },
}

var builtins2 = map[string]func(a, b uint64) uint64{
	"shl":    func(a, b uint64) uint64 { return u32(uint32(a) << (b & 31)) },
	"shr":    func(a, b uint64) uint64 { return u32(uint32(a) >> (b & 31)) },
	"sar":    func(a, b uint64) uint64 { return uint64(int64(int32(uint32(a)) >> (b & 31))) },
	"cc_add": func(a, b uint64) uint64 { return ccAdd(uint32(a), uint32(b)) },
	"cc_sub": func(a, b uint64) uint64 { return ccSub(uint32(a), uint32(b)) },
	"umul":   func(a, b uint64) uint64 { return u32(uint32(a * b)) },
	"smul":   func(a, b uint64) uint64 { return u32(uint32(int32(uint32(a)) * int32(uint32(b)))) },
	"fadd":   fop(func(a, b float32) float32 { return a + b }),
	"fsub":   fop(func(a, b float32) float32 { return a - b }),
	"fmul":   fop(func(a, b float32) float32 { return a * b }),
	"fdiv":   fop(func(a, b float32) float32 { return a / b }),
	"fcmp": func(av, bv uint64) uint64 {
		a, b := math.Float32frombits(uint32(av)), math.Float32frombits(uint32(bv))
		switch {
		case a != a || b != b: // NaN: unordered
			return 3 << 10
		case a < b:
			return 1 << 10
		case a > b:
			return 2 << 10
		}
		return 0
	},
}

func fop(f func(a, b float32) float32) func(a, b uint64) uint64 {
	return func(a, b uint64) uint64 {
		return u32(math.Float32bits(f(math.Float32frombits(uint32(a)), math.Float32frombits(uint32(b)))))
	}
}

// divide applies the division builtin name (udiv, sdiv, urem, srem)
// to 32-bit operands; ok is false for a zero divisor.
func divide(name string, a, b uint32) (v uint64, ok bool) {
	if b == 0 {
		return 0, false
	}
	switch name {
	case "udiv":
		return u32(a / b), true
	case "urem":
		return u32(a % b), true
	case "sdiv":
		return u32(uint32(int32(a) / int32(b))), true
	}
	return u32(uint32(int32(a) % int32(b))), true
}
