package wire

import (
	"testing"

	"bts/internal/ckks"
	"bts/internal/telemetry"
)

func TestCodecStatsCountTraffic(t *testing.T) {
	ctx, _, sk := testContext(t)
	c := NewCodec(ctx)
	var st telemetry.WireStats
	c.SetStats(&st)

	pt, err := ckks.NewEncoder(ctx).Encode([]complex128{0.5}, 1, ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ckks.NewEncryptorSK(ctx, sk, 9).EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UnmarshalCiphertext(b); err != nil {
		t.Fatal(err)
	}

	if got := st.EnvelopesOut.Load(); got != 1 {
		t.Fatalf("EnvelopesOut = %d, want 1", got)
	}
	if got := st.EnvelopesIn.Load(); got != 1 {
		t.Fatalf("EnvelopesIn = %d, want 1", got)
	}
	if got := st.BytesOut.Load(); got != int64(len(b)) {
		t.Fatalf("BytesOut = %d, want the full envelope %d", got, len(b))
	}
	if got := st.BytesIn.Load(); got != int64(len(b)) {
		t.Fatalf("BytesIn = %d, want the full envelope %d", got, len(b))
	}
}
