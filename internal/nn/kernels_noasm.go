//go:build !amd64

package nn

// Without the amd64 assembly the portable Go kernels run everywhere.
const useAVX2 = false

func dotTile4AVX2(dst, a, b []float64, k, n, n8, mode int) { panic("nn: no AVX2 kernels") }

func bwdB4AVX2(dB, a, g []float64, k, n, n4 int) { panic("nn: no AVX2 kernels") }
