//go:build !amd64

package ring

func keystreamVAES(rk *[11][32]byte, hi, ctr uint64, dst *uint64, blocks int, lim uint64) bool {
	panic("ring: keystreamVAES without VAES")
}
