package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on a few virtual CPUs of a shared host. When other
// guests load the host, the hypervisor runs them on our CPUs' time: the
// guest counts that time as steal in /proc/stat, and every wall-clock
// time it spans grows with it while the program's own CPU time does not.
// Steal varies by tens of percent from minute to minute, so the reported
// times are steal-adjusted: a time t whose interval had a stolen share s
// of the guest's non-idle CPU time is reported as t·(1-s), the time it
// would have taken had the host left the guest its CPUs. The per-class
// log lines also give each class's median as measured.

// hostCPU is the guest's CPU time since boot, in USER_HZ ticks, from the
// first line of /proc/stat: busy (user, nice, system, irq, softirq) and
// stolen by the hypervisor (steal).
type hostCPU struct{ busy, steal int64 }

// readHostCPU reads hostCPU; it is zero where /proc/stat is unavailable.
func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var t [8]int64
	for i := range t {
		if t[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostCPU{}
		}
	}
	// user nice system idle iowait irq softirq steal
	return hostCPU{busy: t[0] + t[1] + t[2] + t[5] + t[6], steal: t[7]}
}

// stolenShare is the share of the guest's non-idle CPU time from a to z
// that the hypervisor gave to other guests.
func stolenShare(a, z hostCPU) float64 {
	busy, steal := z.busy-a.busy, z.steal-a.steal
	if busy+steal <= 0 || steal <= 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// stealTick is how often a stealClock samples /proc/stat. With 2 CPUs
// and USER_HZ 100 one tick spans 50 CPU ticks.
const stealTick = 250 * time.Millisecond

// stealClock samples hostCPU every stealTick while a phase runs, so that
// each operation's time can be adjusted by the steal around it.
type stealClock struct {
	mu   sync.Mutex
	at   []time.Time
	cpu  []hostCPU
	stop chan struct{}
	done chan struct{}
}

// startStealClock takes a first sample and samples on in the background
// until finish.
func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	at, cpu := time.Now(), readHostCPU()
	c.mu.Lock()
	c.at = append(c.at, at)
	c.cpu = append(c.cpu, cpu)
	c.mu.Unlock()
}

// finish stops the sampler, waits for it to end and takes a last sample.
func (c *stealClock) finish() {
	close(c.stop)
	<-c.done
	c.sample()
}

// share is the stolen share over the shortest sampled interval that
// covers [from, to]; call it after finish.
func (c *stealClock) share(from, to time.Time) float64 {
	n := len(c.at)
	// i: the last sample at or before from; j: the first at or after to.
	i := sort.Search(n, func(k int) bool { return c.at[k].After(from) }) - 1
	j := sort.Search(n, func(k int) bool { return !c.at[k].Before(to) })
	i, j = max(i, 0), min(j, n-1)
	if i >= j {
		return 0
	}
	return stolenShare(c.cpu[i], c.cpu[j])
}
