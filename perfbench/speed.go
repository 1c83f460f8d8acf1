package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// refKernelSeconds is the CPU time one pass of the probe kernel takes at
// the reference host speed: beside a running job on a quiet 2-vCPU Intel
// Xeon guest (under 1% CPU steal), where it takes about this long.
const refKernelSeconds = 0.01

// probeEvery is how often the probe runs its kernel: about a tenth of one
// CPU at the reference speed.
const probeEvery = 100 * time.Millisecond

// speedProbe measures the host's speed while a run measures. On a shared
// host the other guests slow a job in CPU time as well as in wall time —
// the same request's CPU seconds drifted by a tenth from one half-minute to
// the next on a quiet host, and rose by up to half while the host's CPU
// steal climbed from 2% to 30% — and they slow the probe's fixed kernel
// alike. Times scaled by the probe's factor read as they would at the
// reference speed, so runs made in busy and quiet spells compare. The probe
// runs beside the jobs, on its own OS thread, timing each pass of its
// kernel in that thread's CPU time. Given a set-up, it also times a batch
// of set-ups right after each pass, scaled by that pass: a set-up lasts
// microseconds, and the host's speed wanders by a third from one tenth of
// a second to the next.
type speedProbe struct {
	stopc chan struct{}
	done  chan struct{}
	once  sync.Once
	kn    *kernel
	setup func() error // nil for none
	batch int

	mu     sync.Mutex
	passes []float64     // CPU seconds of each kernel pass
	setups []float64     // CPU seconds of one set-up, per batch, scaled
	raw    []float64     // the same, as measured
	used   time.Duration // CPU time of all passes and set-ups
	err    error         // the first set-up error
}

// probeResult is what a probe measured.
type probeResult struct {
	factor float64 // the reference kernel time over the median pass
	// setup and setupRaw are the median time of one set-up at the
	// reference speed and as measured; 0 without a set-up.
	setup, setupRaw float64
	err             error
}

// startProbe starts a probe; setup, if not nil, is timed batch calls at a
// time after each pass. setup runs on the probe's goroutine, concurrently
// with the jobs.
func startProbe(setup func() error, batch int) *speedProbe {
	p := &speedProbe{stopc: make(chan struct{}), done: make(chan struct{}), kn: newKernel(), setup: setup, batch: batch}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		c := threadCPUTime()
		p.kn.run()
		k := threadCPUTime() - c
		var s time.Duration
		var err error
		if p.setup != nil {
			for i := 0; i < p.batch && err == nil; i++ {
				err = p.setup()
			}
			s = threadCPUTime() - c - k
		}
		p.mu.Lock()
		p.passes = append(p.passes, k.Seconds())
		if p.setup != nil {
			one := s.Seconds() / float64(p.batch)
			p.setups = append(p.setups, one*refKernelSeconds/k.Seconds())
			p.raw = append(p.raw, one)
		}
		p.used += k + s
		if p.err == nil {
			p.err = err
		}
		p.mu.Unlock()
		if err != nil {
			return
		}
		select {
		case <-p.stopc:
			return
		case <-t.C:
		}
	}
}

// cpu returns the CPU time the probe has used so far, which a job's CPU
// time, read from the whole process, must leave out; 0 for no probe.
func (p *speedProbe) cpu() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// stop ends the probe, if it still runs, and returns what it measured.
func (p *speedProbe) stop() probeResult {
	p.once.Do(func() { close(p.stopc) })
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return probeResult{
		factor:   ratio(refKernelSeconds, median(p.passes)),
		setup:    median(p.setups),
		setupRaw: median(p.raw),
		err:      p.err,
	}
}

// threadCPUTime returns the calling OS thread's CPU time
// (CLOCK_THREAD_CPUTIME_ID), to the nanosecond.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// Cannot fail: the clock exists on every Linux and ts is valid.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// kernel is the probe's fixed work: sorting the same 16 Ki pseudo-random
// float64s six times over, comparison- and branch-heavy work on a 256 KiB
// working set allocated once, so a pass allocates nothing and its time
// does not depend on how much live heap the process holds. Of the kernels
// tried beside the three workloads — this sort, dense float matrix-vector
// products, and a pointer chase through 1 MiB — the sort's time followed
// the jobs' CPU time most closely from busy spells to quiet ones: over
// 5–8 runs of each workload it left a 3–4% spread in the scaled CPU time
// per job, against 3–13% for the others and 5–9% unscaled.
type kernel struct {
	src, buf []float64
	sink     float64 // keeps the work observable
}

func newKernel() *kernel {
	rng := rand.New(rand.NewSource(1))
	kn := &kernel{src: make([]float64, 1<<14), buf: make([]float64, 1<<14)}
	for i := range kn.src {
		kn.src[i] = rng.Float64()
	}
	return kn
}

func (kn *kernel) run() {
	for i := 0; i < 6; i++ {
		copy(kn.buf, kn.src)
		sort.Float64s(kn.buf)
	}
	kn.sink += kn.buf[len(kn.buf)/2]
}

// setupTime runs setup reps times, each right after a pass of the probe
// kernel on the same OS thread, and returns the median set-up time scaled
// to the reference host speed by the wall time of the pass before it, and
// unscaled. It suits a set-up that starts goroutines of its own and so
// cannot run beside the jobs on the probe's thread; it must run while the
// process does nothing else.
func setupTime(reps int, setup func() error) (scaled, raw float64, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	kn := newKernel()
	var xs, ys []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		kn.run()
		k := time.Since(t)
		t = time.Now()
		if err := setup(); err != nil {
			return 0, 0, err
		}
		d := time.Since(t).Seconds()
		xs, ys = append(xs, d*refKernelSeconds/k.Seconds()), append(ys, d)
	}
	return median(xs), median(ys), nil
}
