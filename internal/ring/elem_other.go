//go:build !amd64

package ring

func mulRowLanes(a, b, out []uint64, q, qInv uint64) { noLanes() }

func mulAddRowLanes(a, b, out []uint64, q, qInv uint64) { noLanes() }

func gatherMulRowLanes(a []uint64, table []int, b, out []uint64, q, qInv uint64) { noLanes() }

func gatherMulAddRowLanes(a []uint64, table []int, b, out []uint64, q, qInv uint64) { noLanes() }

func mulShoupRowLanes(a, out []uint64, w, ws, q uint64) { noLanes() }

func mulShoupAddRowLanes(a, out []uint64, w, ws, q uint64) { noLanes() }

func subMulShoupRowLanes(a, b, out []uint64, w, ws, q uint64) { noLanes() }

func reduceAccRowLanes(accLo, accHi, out []uint64, q, qInv, fold uint64) { noLanes() }
