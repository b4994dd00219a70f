package ring

//go:noescape
func keystreamVAES(rk *[11][32]byte, hi, ctr uint64, dst *uint64, blocks int, lim uint64) (rejected bool)
