package export

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildInfo identifies the running binary for dashboards and bug reports:
// the module version, the VCS commit it was built from, and the Go
// toolchain. Unknown fields report "unknown" rather than emptying the label.
type BuildInfo struct {
	// Version is the main module version ("(devel)" for source builds).
	Version string `json:"version"`
	// Commit is the vcs.revision build setting, when stamped.
	Commit string `json:"commit"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// ReadBuildInfo extracts the binary's build identity from the runtime's
// embedded build information. The result is cached: the information cannot
// change while the process runs.
func ReadBuildInfo() BuildInfo {
	buildOnce.Do(func() {
		buildInfo = BuildInfo{Version: "unknown", Commit: "unknown", GoVersion: runtime.Version()}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.Main.Version != "" {
			buildInfo.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				buildInfo.Commit = s.Value
			}
		}
	})
	return buildInfo
}

// WriteBuildInfoProm appends the conventional build-info gauge — constant 1,
// identity in the labels — to a Prometheus exposition:
//
//	gnsslna_build_info{version="(devel)",commit="abc123",goversion="go1.22.1"} 1
//
// The registry's own writer cannot produce it (registry metrics carry only a
// name label), so the /metrics handler emits this family separately.
func WriteBuildInfoProm(w io.Writer, bi BuildInfo) error {
	fam := namespace + "_build_info"
	if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", fam); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, `%s{version="%s",commit="%s",goversion="%s"} 1`+"\n",
		fam, EscapeLabel(bi.Version), EscapeLabel(bi.Commit), EscapeLabel(bi.GoVersion))
	return err
}
