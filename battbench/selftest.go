package main

import (
	"context"
	"crypto/sha256"
	"fmt"
)

// selfTestBodies is how many async bodies the checker self-test sends.
const selfTestBodies = 50

// selfTest checks the checker against a daemon started with
// -job-retention -1ms: it prunes a finished job before the stream
// handler reads it back, and POST /v1/jobs/stream ends early. Every
// line that never arrived must count as failed.
func selfTest(e *env) error {
	v, received, err := truncatedStreams(e)
	if err != nil {
		return err
	}
	fmt.Printf("selftest: %d lines received, checker %s\n", received, v)
	if v.failed() == 0 || v.failed() < v.attempted-received {
		return fmt.Errorf("checker counted %d failed of %d jobs with only %d lines received", v.failed(), v.attempted, received)
	}
	fmt.Println("selftest: ok")
	return nil
}

// truncatedStreams sends selfTestBodies async bodies to a daemon that
// retains no finished job and checks what came back.
func truncatedStreams(e *env) (verdict, int, error) {
	a := newAsyncSet(e.seed)
	ref, err := runReference(a.ref, e.workers)
	if err != nil {
		return verdict{}, 0, err
	}
	d, err := startDaemon(e.daemon, "-job-retention", "-1ms")
	if err != nil {
		return verdict{}, 0, err
	}
	defer d.stop()
	c := newHTTPClient(d, e.clients)
	var le loopErr
	l := closedLoop(e.clients, func(b int, l *load) bool {
		if b >= selfTestBodies {
			return false
		}
		if err := asyncBody(context.Background(), c, a, b, false, l); err != nil {
			return le.set(err)
		}
		return true
	})
	if le.err != nil {
		return verdict{}, 0, le.err
	}
	v := check(l.outs, func(key, idx int) [sha256.Size]byte { return sha256.Sum256(referenceLine(idx, ref[key])) })
	return v, l.jobs, nil
}
