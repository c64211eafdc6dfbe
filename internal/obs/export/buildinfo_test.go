package export

import (
	"bytes"
	"strings"
	"testing"

	"gnsslna/internal/obs"
)

func TestReadBuildInfo(t *testing.T) {
	bi := ReadBuildInfo()
	if bi.GoVersion == "" || !strings.HasPrefix(bi.GoVersion, "go") {
		t.Errorf("go version = %q", bi.GoVersion)
	}
	if bi.Version == "" || bi.Commit == "" {
		t.Errorf("build identity has empty fields: %+v", bi)
	}
	if again := ReadBuildInfo(); again != bi {
		t.Error("ReadBuildInfo not stable across calls")
	}
}

func TestWriteBuildInfoProm(t *testing.T) {
	var buf bytes.Buffer
	bi := BuildInfo{Version: "v1.2.3", Commit: "abc\"def", GoVersion: "go1.22.1"}
	if err := WriteBuildInfoProm(&buf, bi); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gnsslna_build_info gauge",
		`version="v1.2.3"`,
		`commit="abc\"def"`, // label escaping
		`goversion="go1.22.1"`,
		"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestBroadcasterSlowClientDrops pins the satellite fix: a subscriber that
// stops reading loses events without blocking the emitter, and every loss is
// counted both on the broadcaster and in the attached registry counter (the
// gnsslna_sse_dropped_total family) instead of disappearing silently.
func TestBroadcasterSlowClientDrops(t *testing.T) {
	b := NewBroadcaster()
	reg := obs.NewRegistry()
	b.CountDrops(reg.Counter("sse.dropped"))

	ch, cancel := b.Subscribe()
	defer cancel()

	const extra = 37
	for i := 0; i < subBuffer+extra; i++ {
		b.Observe(obs.Event{Kind: obs.KindGeneration, Gen: i})
	}
	if got := b.Dropped(); got != extra {
		t.Errorf("broadcaster dropped %d, want %d", got, extra)
	}
	if got := reg.Counter("sse.dropped").Value(); got != extra {
		t.Errorf("registry sse.dropped = %d, want %d", got, extra)
	}
	// The buffered prefix is intact for the slow client: drops discard the
	// newest events, never corrupt the queued ones.
	first := <-ch
	if first.Gen != 0 {
		t.Errorf("first buffered event gen = %d, want 0", first.Gen)
	}
	// Once the client drains a slot, delivery resumes.
	b.Observe(obs.Event{Kind: obs.KindSample, Scope: "after-drain"})
	for i := 0; i < subBuffer; i++ {
		if e := <-ch; e.Scope == "after-drain" {
			return
		}
	}
	t.Error("event after drain never delivered")
}
