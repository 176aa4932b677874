package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// The shared host's speed drifts by a factor of up to two within minutes:
// other tenants load the memory system, so memory-bound code such as the
// simulator slows down and speeds up with them. A benchmark that reported
// raw host seconds would measure the neighbours more than the program. The
// host clock times a fixed reference kernel (the benchmark's own code,
// touching memory the way the simulator does) right before and after every
// measured interval, and the benchmark reports the interval in reference
// seconds:
//
//	ref_s = host_s × refNominal / (mean kernel time before and after)
//
// On a host that runs the kernel in exactly refNominal, a reference second
// is a host second. A change to the program moves the interval but not the
// kernel, so it moves ref_s in full; a host slowdown moves both, and
// cancels. The raw host seconds are printed next to every metric.
//
// The kernel runs in the parent process, which serves probes to each worker
// over a pair of pipes while the worker waits. The kernel thus shares the
// worker's host but not its heap, collector or resident set, so the worker
// measures the program alone.
//
// A second kernel serves intervals spent in the file system and the network
// stack rather than in memory: campaign's maskd start-up, half a millisecond
// of directory creation, directory fsyncs and a loopback HTTP round trip.
// Those follow the host's I/O and scheduler, which move on their own (runs
// of a minute or two at twice the usual time), so they are scaled by a
// kernel doing the same kind of work, in setup reference seconds
// (refSetupNominal).

// refNominal is the reference kernel's time on an unloaded host: the unit
// that turns kernel times into host-speed factors.
const refNominal = 10 * time.Millisecond

// refSetupNominal is the set-up kernel's time on an unloaded host.
const refSetupNominal = 500 * time.Microsecond

// refNodes is the size of the kernel's linked structures (about 10 MB each,
// more than a last-level cache share).
const refNodes = 150_000

type refNode struct {
	next *refNode
	val  [6]uint64
}

// refKernel owns the reference kernels' preallocated memory and the
// directory the set-up kernel works in.
type refKernel struct {
	arena []refNode
	table map[uint64]*refNode
	dir   string
	sink  uint64
}

func newRefKernel(dir string) *refKernel {
	k := &refKernel{arena: make([]refNode, refNodes), table: make(map[uint64]*refNode, refNodes/3), dir: dir}
	// Fault in the arena, the table and the heap the fresh lists reuse, so
	// the first probe finds the state every later one does.
	for range 4 {
		k.probe()
	}
	return k
}

// run is the reference work: allocate a fresh linked list with the
// collector paused (allocation and zeroing), then relink a preallocated
// arena in pseudo-random order and index a third of it in a map (cache and
// TLB misses, map probes), then walk both lists.
func (k *refKernel) run() {
	old := debug.SetGCPercent(-1)
	var fresh *refNode
	for i := uint64(0); i < refNodes; i++ {
		n := &refNode{next: fresh}
		n.val[i%6] = i
		fresh = n
	}
	clear(k.table)
	var head *refNode
	x := uint64(88172645463325252)
	for i := uint64(0); i < refNodes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &k.arena[x%refNodes]
		n.next = head
		n.val[i%6] = i
		head = n
		if i%3 == 0 {
			k.table[i*2654435761%100003] = n
		}
	}
	s := uint64(len(k.table))
	for n := fresh; n != nil; n = n.next {
		s += n.val[0]
	}
	for j, n := 0, head; n != nil && j < refNodes; j, n = j+1, n.next {
		s += n.val[1]
	}
	k.sink += s
	debug.SetGCPercent(old)
}

// probe times the kernel twice and returns the mean time of one run. A
// collection first frees the previous probe's lists, so every probe starts
// from the same heap.
func (k *refKernel) probe() time.Duration {
	runtime.GC()
	t0 := time.Now()
	k.run()
	k.run()
	return time.Since(t0) / 2
}

// setupRun is the set-up reference work, the kind maskd does before it
// answers: create a directory and fsync it and its parent, then listen on a
// loopback port, connect, and echo a request-sized message; then clean up.
func (k *refKernel) setupRun() error {
	dir := filepath.Join(k.dir, "clock-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range []string{dir, k.dir} {
		f, err := os.Open(d)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		var msg [128]byte
		if _, err = io.ReadFull(c, msg[:]); err == nil {
			_, err = c.Write(msg[:])
		}
		echoed <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err == nil {
		var msg [128]byte
		if _, err = c.Write(msg[:]); err == nil {
			_, err = io.ReadFull(c, msg[:])
		}
		c.Close()
	}
	if err != nil {
		ln.Close() // unblocks Accept if the dial failed
	}
	return errors.Join(err, <-echoed, os.RemoveAll(dir))
}

// setupProbe times the set-up kernel five times and returns the mean time
// of one run.
func (k *refKernel) setupProbe() (time.Duration, error) {
	t0 := time.Now()
	for range 5 {
		if err := k.setupRun(); err != nil {
			return 0, fmt.Errorf("set-up kernel: %w", err)
		}
	}
	return time.Since(t0) / 5, nil
}

// Probe requests, one byte each.
const (
	probeMemory = 'm'
	probeSetup  = 's'
)

// serve answers probe requests: one byte naming the kernel in, the probe's
// duration in nanoseconds out, until the worker closes its end.
func (k *refKernel) serve(req io.Reader, resp io.Writer) error {
	var b [8]byte
	for {
		if _, err := io.ReadFull(req, b[:1]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		var d time.Duration
		switch b[0] {
		case probeMemory:
			d = k.probe()
		case probeSetup:
			var err error
			if d, err = k.setupProbe(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("host clock: unknown probe %q", b[0])
		}
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		if _, err := resp.Write(b[:]); err != nil {
			return err
		}
	}
}

// hostClock is a worker's end of the probe pipes; it keeps every memory
// kernel probe.
type hostClock struct {
	req, resp *os.File
	probes    []time.Duration
	err       error // the first failed probe; the worker fails with it
}

// probe asks the parent for one memory kernel probe.
func (h *hostClock) probe() time.Duration {
	d := h.ask(probeMemory, refNominal)
	if h.err == nil {
		h.probes = append(h.probes, d)
	}
	return d
}

// setupProbe asks the parent for one set-up kernel probe.
func (h *hostClock) setupProbe() time.Duration {
	return h.ask(probeSetup, refSetupNominal)
}

// ask requests one probe of a kernel. After a failure it returns the
// kernel's nominal time, so measurement goes on, and the worker reports
// h.err.
func (h *hostClock) ask(kernel byte, nominal time.Duration) time.Duration {
	var b [8]byte
	b[0] = kernel
	if h.err == nil {
		if _, h.err = h.req.Write(b[:1]); h.err == nil {
			_, h.err = io.ReadFull(h.resp, b[:])
		}
	}
	if h.err != nil {
		return nominal
	}
	return time.Duration(binary.LittleEndian.Uint64(b[:]))
}

// probeBlock takes n probes and returns their median, for an interval too
// long and too few to average the probes' own jitter over many samples.
func (h *hostClock) probeBlock(n int) time.Duration {
	ps := make([]time.Duration, n)
	for i := range ps {
		ps[i] = h.probe()
	}
	slices.Sort(ps)
	return ps[n/2]
}

// scale converts a host interval to reference seconds, given the memory
// kernel probes taken right before and right after it.
func scale(d, before, after time.Duration) float64 {
	return scaleBy(d, refNominal, before, after)
}

// scaleBy converts a host interval to reference seconds of a kernel with
// the given nominal time, given its probes right before and after.
func scaleBy(d, nominal, before, after time.Duration) float64 {
	return d.Seconds() * 2 * nominal.Seconds() / (before + after).Seconds()
}

// medianProbe is the median kernel time over every probe, in ms.
func (h *hostClock) medianProbe() float64 {
	if len(h.probes) == 0 {
		return 0
	}
	s := slices.Clone(h.probes)
	slices.Sort(s)
	return float64(s[len(s)/2]) / 1e6
}

func (h *hostClock) String() string {
	parts := make([]string, len(h.probes))
	for i, p := range h.probes {
		parts[i] = fmt.Sprintf("%.1f", float64(p)/1e6)
	}
	return strings.Join(parts, " ")
}
