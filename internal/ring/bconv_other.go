//go:build !amd64

package ring

const useIFMA = false

func bconvDigits(y, cnt, x *uint64, n int, tab *uint64) {
	panic("ring: bconvDigits without AVX-512 IFMA")
}

func bconvLanes(dst, y *uint64, n, stride, terms int, tab *uint64) {
	panic("ring: bconvLanes without AVX-512 IFMA")
}
