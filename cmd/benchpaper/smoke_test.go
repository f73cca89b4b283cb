package main

import (
	"bytes"
	"errors"
	"flag"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
)

// startDaemon serves both paper fixtures on a loopback port: what
// `nestedsqld -addr 127.0.0.1:0 -fixture both` gives serve_smoke.sh.
func startDaemon(t *testing.T) string {
	t.Helper()
	db, err := paperDB()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db.Internal(), server.Config{Strategy: engine.TransformJA2})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Shutdown(5 * time.Second) })
	return lis.Addr().String()
}

// cmdline parses args the way main does.
func cmdline(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("benchpaper", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// The drivers the smoke gate trusts must themselves tell a good server
// from a bad table: serve-load passes against the oracle, the DML burst
// acks what it sent, and verify accepts the acked prefix (plus at most
// one in-flight row) and nothing else.
func TestSmokeDrivers(t *testing.T) {
	addr := startDaemon(t)
	var out bytes.Buffer
	captureStdout(t, &out, func() {
		if err := run(cmdline(t, "-serve-load", "-serve-addr", addr, "-connections", "2", "-rounds", "1")); err != nil {
			t.Errorf("serve-load 2x1: %v", err)
		}
		if acked, err := serveDML(addr, 50); err != nil || acked != 50 {
			t.Errorf("serve-dml 50 acked %d, err %v", acked, err)
		}
		if err := run(cmdline(t, "-serve-dml-verify", "50", "-serve-addr", addr)); err != nil {
			t.Errorf("verify 50 over 50 rows: %v", err)
		}
		if err := serveDMLVerify(addr, 49); err != nil {
			t.Errorf("verify 49 over 50 rows (one in flight): %v", err)
		}
		if err := serveDMLVerify(addr, 48); err == nil || !strings.Contains(err.Error(), "at most 1 in-flight") {
			t.Errorf("verify 48 over 50 rows = %v, want the in-flight bound to fail it", err)
		}

		if err := deleteKey10(addr); err != nil {
			t.Errorf("DELETE: %v", err)
		}
		if err := serveDMLVerify(addr, 49); err == nil || !strings.Contains(err.Error(), "not a contiguous prefix") {
			t.Errorf("verify after deleting key 10 = %v, want a gap reported", err)
		}
	})
	for _, want := range []string{
		"serve-load: 20 queries OK",
		"serve-dml: acked 50 (burst completed)", // serve_smoke.sh parses this line
		"serve-dml: verified 50 recovered rows",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func deleteKey10(addr string) error {
	conn, err := client.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = conn.Collect("DELETE FROM DURABLE WHERE K = 10", client.Options{})
	return err
}

// A command line that would measure nothing is refused, not passed: no
// server to talk to, or zero queries to run.
func TestSmokeUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-serve-load"},
		{"-serve-dml", "10"},
		{"-serve-dml-verify", "10"},
		{"-serve-load", "-serve-addr", "127.0.0.1:1", "-connections", "0"},
		{"-serve-load", "-serve-addr", "127.0.0.1:1", "-rounds", "0"},
		{"-exp", "durability"},
	} {
		if err := run(cmdline(t, args...)); !errors.Is(err, errUsage) {
			t.Errorf("benchpaper %s: run = %v, want a usage error", strings.Join(args, " "), err)
		}
	}
}
