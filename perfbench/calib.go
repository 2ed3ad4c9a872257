package main

import (
	"cmp"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Host-speed calibration. On the shared 2-vCPU host the same job list
// ran at 4.4 jobs/s in one run and 8.0 in another a few minutes later:
// neighbours contending for the machine slow the benchmark, steal time
// stays near zero, and no run is long enough to average the drift away.
// So each run also measures the host. Between jobs, with nothing of the
// program in flight, it runs fixed calibration kernels for a short
// slice each, and every time it reports is scaled by the host's speed
// over the run relative to a reference speed:
//
//	reported time = measured time × host speed
//	host speed    = geometric mean over the kernels of rate ÷ reference rate
//
// The kernels are the benchmark's own code on the Go runtime, the
// loopback network and the file system, and allocate nothing once warm,
// so a change to the program cannot change their rates: a program that
// gets slower by x reports times x larger, exactly as unscaled times
// would, while most of the host's drift cancels.
//
// The kernels match what the workloads do: computation on both CPUs,
// round trips between goroutines over loopback TCP (every HTTP exchange
// and cone dispatch), and, for a workload that journals, fsynced
// appends. In a scratch run that alternated 26-job blocks of fleet-jnl
// with samples of several kernels for six minutes, the blocks' time
// drifted by 12.6% over 32 s windows (standard deviation of its log).
// Dividing by the compute kernel alone left 7.4%: the jobs slowed about
// twice as much as it did. The round trip alone left 5.3%, and the two
// together 4.8%. Dependent loads over a 4 MB or 32 MB table left 10%.
// fsync latency, which those runs did not sample, has a heavy tail on
// the 2-vCPU host's disk (p50 0.12 ms, p90 2-4 ms in a busy stretch), and a
// fleet-jnl job makes dozens.

const (
	// refComputeRate is the compute kernel's steps per second on both
	// CPUs, and refRoundTripRate the round trips per second of one
	// loopback TCP pair, on the 2-vCPU Xeon host at its usual speed.
	// Reported times are what that host would have measured.
	refComputeRate   = 2700.0
	refRoundTripRate = 80000.0
	// refSyncRate is appends with fsync per second, for a workload that
	// fsyncs.
	refSyncRate = 6000.0

	// calSlice is the length of each kernel's part of one sample, and
	// calEvery the timed-phase time between two samples: many short
	// samples, because one sample's speed varies by about 13% (standard
	// deviation of its log) and the scale is their mean.
	calSlice = 50 * time.Millisecond
	calEvery = 750 * time.Millisecond
	// calThreads is the number of goroutines the compute kernel keeps
	// busy: the CPUs a workload may occupy (see the budget guard).
	calThreads = 2
	// calWarmup is spent running the kernels, unrecorded, when the
	// calibrator is made: the first second of two-thread load in a new
	// process runs slow.
	calWarmup = time.Second
	// calSetupSamples is about how many samples a run takes around its
	// set-ups, spread evenly over the gaps before, between and after
	// them.
	calSetupSamples = 24
	// echoSize is the size of a round trip's message, and syncRecord
	// that of an fsynced append: about a fleet journal record.
	echoSize   = 256
	syncRecord = 2048
)

// calKernel is one goroutine's compute state. A step is map updates and
// a sort, the bulk of what the program's own code does.
type calKernel struct {
	m    map[uint32]uint64
	keys []uint64
	x    uint64
}

func newCalKernel(seed uint64) *calKernel {
	return &calKernel{m: make(map[uint32]uint64, 4096), keys: make([]uint64, 0, 4096), x: seed}
}

func (k *calKernel) step() {
	clear(k.m)
	for i := 0; i < 8192; i++ {
		k.x = k.x*6364136223846793005 + 1442695040888963407
		k.m[uint32(k.x>>40)&4095] += k.x
	}
	k.keys = k.keys[:0]
	for _, v := range k.m {
		k.keys = append(k.keys, v)
	}
	slices.Sort(k.keys)
	k.x += k.keys[0]
}

// echo is a loopback TCP connection to a goroutine that sends every
// message back.
type echo struct {
	ln   net.Listener
	conn net.Conn
	buf  []byte
	done chan struct{}
}

func newEcho() (*echo, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echo{ln: ln, buf: make([]byte, echoSize), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b := make([]byte, echoSize)
		for {
			if _, err := io.ReadFull(c, b); err != nil {
				return
			}
			if _, err := c.Write(b); err != nil {
				return
			}
		}
	}()
	if e.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-e.done
		return nil, err
	}
	return e, nil
}

func (e *echo) roundTrip() error {
	if _, err := e.conn.Write(e.buf); err != nil {
		return err
	}
	_, err := io.ReadFull(e.conn, e.buf)
	return err
}

func (e *echo) close() {
	e.conn.Close()
	e.ln.Close()
	<-e.done
}

// calibrator takes calibration samples and keeps the host speed each
// measured. A nil *calibrator takes none, and its scale is 1: tests of
// the workloads run uncalibrated.
type calibrator struct {
	kernels []*calKernel
	echo    *echo
	// sync, when set, is the file the fsync kernel appends to.
	sync    *os.File
	syncBuf []byte
	mu      sync.Mutex
	speeds  []float64
	// err is the first failed sample's error; a run that has one fails.
	err error
}

// newCalibrator starts the kernels. A workload that fsyncs passes a
// directory for the fsync kernel's file; one that does not passes "".
func newCalibrator(syncDir string) (*calibrator, error) {
	e, err := newEcho()
	if err != nil {
		return nil, err
	}
	c := &calibrator{echo: e}
	for g := 0; g < calThreads; g++ {
		c.kernels = append(c.kernels, newCalKernel(uint64(g+1)))
	}
	if syncDir != "" {
		if c.sync, err = os.Create(filepath.Join(syncDir, "calibration.sync")); err != nil {
			c.close()
			return nil, err
		}
		c.syncBuf = make([]byte, syncRecord)
	}
	if _, err := c.measure(calWarmup / 3); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close stops the echo goroutine and removes the fsync kernel's file.
func (c *calibrator) close() {
	if c == nil {
		return
	}
	c.echo.close()
	if c.sync != nil {
		c.sync.Close()
		os.Remove(c.sync.Name())
	}
}

// sample measures the host's speed once and records it.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	speed, err := c.measure(calSlice)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.err = cmp.Or(c.err, err)
		return
	}
	c.speeds = append(c.speeds, speed)
}

// failure returns the first failed sample's error.
func (c *calibrator) failure() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// measure runs each kernel for d and returns the host's speed relative
// to the reference: the geometric mean of the kernels' relative rates.
func (c *calibrator) measure(d time.Duration) (float64, error) {
	logSum := math.Log(c.compute(d) / refComputeRate)
	trips, err := rate(d, c.echo.roundTrip)
	if err != nil {
		return 0, err
	}
	logSum += math.Log(trips / refRoundTripRate)
	kernels := 2.0
	if c.sync != nil {
		if err := c.sync.Truncate(0); err != nil {
			return 0, err
		}
		syncs, err := rate(d, c.appendSync)
		if err != nil {
			return 0, err
		}
		logSum += math.Log(syncs / refSyncRate)
		kernels++
	}
	return math.Exp(logSum / kernels), nil
}

// rate calls f until d has passed and returns its calls per second.
func rate(d time.Duration, f func() error) (float64, error) {
	t0 := time.Now()
	n := 0
	for end := t0.Add(d); time.Now().Before(end); n++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}

// appendSync appends one journal-sized record and fsyncs it, as the
// fleet journal does before each side effect.
func (c *calibrator) appendSync() error {
	if _, err := c.sync.Write(c.syncBuf); err != nil {
		return err
	}
	return c.sync.Sync()
}

// compute runs the compute kernel on calThreads goroutines for d and
// returns their steps per second.
func (c *calibrator) compute(d time.Duration) float64 {
	t0 := time.Now()
	end := t0.Add(d)
	steps := make([]int, len(c.kernels))
	var wg sync.WaitGroup
	for g, k := range c.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				k.step()
				steps[g]++
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, s := range steps {
		n += s
	}
	return float64(n) / time.Since(t0).Seconds()
}

// mark returns how many samples have been taken, for scale.
func (c *calibrator) mark() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.speeds)
}

// scale is the host's speed over the samples taken since mark: the
// geometric mean of their speeds, without the lowest and highest tenth.
// It is 1 when there are none. A mean follows the host's speed over the
// whole phase, which is what its jobs ran at.
func (c *calibrator) scale(mark int) float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	xs := slices.Clone(c.speeds[mark:])
	c.mu.Unlock()
	if len(xs) == 0 {
		return 1
	}
	slices.Sort(xs)
	cut := len(xs) / 10
	xs = xs[cut : len(xs)-cut]
	logSum := 0.0
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
