package main

import (
	"os/exec"
	"strings"
	"testing"
)

func TestDemoRuns(t *testing.T) {
	cmd := exec.Command("go", "run", ".", "--chargers", "6", "--tasks", "15", "--seed", "2")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("demo failed: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"online HASTE demo",
		"arrival-triggered negotiations",
		"orientation timeline",
		"overall charging utility",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestDemoTCPTransport runs the demo over loopback sockets and asserts
// the user-visible equivalence contract end to end: apart from the header
// naming the substrate, the --transport=tcp output (negotiations,
// timeline, per-task utilities) is byte-identical to --transport=mem.
func TestDemoTCPTransport(t *testing.T) {
	args := []string{"run", ".", "--chargers", "6", "--tasks", "15", "--seed", "2"}
	mem, err := exec.Command("go", append(args, "--transport", "mem")...).CombinedOutput()
	if err != nil {
		t.Fatalf("mem demo failed: %v\n%s", err, mem)
	}
	tcp, err := exec.Command("go", append(args, "--transport", "tcp")...).CombinedOutput()
	if err != nil {
		t.Fatalf("tcp demo failed: %v\n%s", err, tcp)
	}
	if !strings.Contains(string(tcp), "transport=tcp") {
		t.Errorf("tcp output does not name its substrate:\n%s", tcp)
	}
	normalize := func(out []byte) string {
		lines := strings.SplitN(string(out), "\n", 2)
		if len(lines) < 2 {
			return ""
		}
		return lines[1] // drop the header line, which names the transport
	}
	if normalize(mem) != normalize(tcp) {
		t.Errorf("tcp output diverges from mem:\n--- mem ---\n%s\n--- tcp ---\n%s", mem, tcp)
	}
}

func TestDemoRejectsUnknownTransport(t *testing.T) {
	out, err := exec.Command("go", "run", ".", "--chargers", "4", "--tasks", "6", "--transport", "carrier-pigeon").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown transport accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown --transport") {
		t.Errorf("missing diagnostic:\n%s", out)
	}
}

func TestDemoChaosFlags(t *testing.T) {
	cmd := exec.Command("go", "run", ".",
		"--chargers", "6", "--tasks", "15", "--seed", "2",
		"--drop", "0.1", "--dup", "0.05", "--delay", "0.1", "--crash", "0.01",
		"--reliable")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("chaos demo failed: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"failure injection:",
		"degradation:",
		"overall charging utility",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}
