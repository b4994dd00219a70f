package ring

//go:noescape
func bconvDigits(y, cnt, x *uint64, n int, tab *uint64)

//go:noescape
func bconvLanes(dst, y *uint64, n, stride, terms int, tab *uint64)
