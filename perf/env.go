package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/server"
)

// environment is recorded next to the numbers of every run, so a noisy run
// can be recognised after the fact.
type environment struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GOGC       string   `json:"gogc"`
	GoVersion  string   `json:"go_version"`
	Revision   string   `json:"revision"`
	CPU        string   `json:"cpu"`
	LoadBefore string   `json:"loadavg_before"`
	LoadAfter  string   `json:"loadavg_after"`
	Warnings   []string `json:"warnings,omitempty"`
}

func newEnvironment() environment {
	goVersion, revision := server.BuildInfo()
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	e := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		GoVersion: goVersion, Revision: revision, CPU: cpuModel(),
	}
	// On two shared cores another busy process moves every timing.  A run
	// that follows another run of this benchmark sees that run's load.
	e.LoadBefore = loadavg()
	var one float64
	if _, err := fmt.Sscan(e.LoadBefore, &one); err == nil && one > 1.0 {
		e.Warnings = append(e.Warnings, fmt.Sprintf("1-minute load average was %.2f at the start: timings of this run are suspect", one))
	}
	return e
}

// finish reads the load a second time, once the run is over.
func (e *environment) finish() { e.LoadAfter = loadavg() }

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
