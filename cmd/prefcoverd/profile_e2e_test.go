package main

// End-to-end capture test: boot the real daemon, arm a server-side CPU
// capture through /debug/profilez while inline solves hammer /v1/solve,
// then download and decode the capture and find the solver's pprof
// labels in it.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prefcover"
	"prefcover/internal/graphtest"
	"prefcover/internal/profilez"
)

// startDaemon builds and boots prefcoverd on an ephemeral port and
// returns its base URL; cleanup kills the process.
func startDaemon(t *testing.T, args ...string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prefcoverd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "prefcoverd listening") {
				for _, tok := range strings.Fields(line) {
					if v, ok := strings.CutPrefix(tok, "addr="); ok {
						select {
						case addrCh <- v:
						default:
						}
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never logged its listen address")
		return ""
	}
}

func TestProfileCaptureE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping daemon e2e in -short mode")
	}
	base := startDaemon(t)

	// Inline bodies bypass the solve cache, so every request really runs
	// the (labeled) solver.
	var graphBody bytes.Buffer
	g := graphtest.Random(rand.New(rand.NewSource(7)), 4000, 6, prefcover.Independent)
	if err := prefcover.WriteGraphJSON(&graphBody, g); err != nil {
		t.Fatal(err)
	}
	solveOnce := func() {
		resp, err := http.Post(base+"/v1/solve?variant=i&k=150&lazy=0",
			"application/json", bytes.NewReader(graphBody.Bytes()))
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve status = %d", resp.StatusCode)
		}
	}
	solveOnce() // warm up (JIT-free, but page the graph code in)

	// Arm a 2s server-side CPU capture, then keep the solver busy for the
	// whole window.
	type captureReply struct {
		ID string `json:"id"`
	}
	capDone := make(chan captureReply, 1)
	capErr := make(chan string, 1)
	go func() {
		resp, err := http.Post(base+"/debug/profilez?capture=cpu&seconds=2", "", nil)
		if err != nil {
			capErr <- err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			capErr <- string(body)
			return
		}
		var entry captureReply
		if err := json.Unmarshal(body, &entry); err != nil {
			capErr <- err.Error()
			return
		}
		capDone <- entry
	}()

	var entry captureReply
	deadline := time.Now().Add(30 * time.Second)
loop:
	for {
		select {
		case entry = <-capDone:
			break loop
		case msg := <-capErr:
			t.Fatalf("capture failed: %s", msg)
		default:
			if time.Now().After(deadline) {
				t.Fatal("capture never completed")
			}
			solveOnce()
		}
	}

	resp, err := http.Get(base + "/debug/profilez?download=" + entry.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download status = %d", resp.StatusCode)
	}
	info, err := profilez.ReadProfile(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if info.Samples == 0 {
		t.Skip("CPU capture recorded no samples (throttled environment)")
	}
	for _, want := range [][2]string{
		{profilez.LabelStrategy, "scan"},
		{profilez.LabelEndpoint, "/v1/solve"},
		{profilez.LabelKBucket, profilez.KBucket(150)},
	} {
		if !info.HasLabel(want[0], want[1]) {
			t.Errorf("server-side capture (%d samples) has no sample labeled %s=%q; labels: %v",
				info.Samples, want[0], want[1], info.Labels)
		}
	}
}
