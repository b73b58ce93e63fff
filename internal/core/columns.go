package core

import (
	"fmt"
	"sync"
)

// Column suffixes of the host's telemetry and ss blocks. A block names its
// columns prefix+suffix, so these lists are shared by every host and run.
var (
	hostCols        = []string{"copied_bytes", "written_bytes", "copy_miss_rate", "skb_avg_bytes", "latency_p99_us", "unsteered", "steer_miss"}
	ddioCols        = []string{"ddio/hit_rate", "ddio/resident_pages"}
	flowTelemCols   = []string{"cwnd_bytes", "srtt_ns", "retransmits", "rcvbuf_bytes"}
	flowInspectCols = []string{"cwnd_bytes", "ssthresh_bytes", "srtt_ns", "rto_ns", "inflight_bytes",
		"qdisc_bytes", "sndbuf_free_bytes", "rcvbuf_bytes", "recvq_bytes", "ooo_segments", "retransmits"}
)

// coreColumns memoizes a per-core suffix list by core count: lead, then
// "coreNN/"+each of per for every core. Hosts of one run and concurrent
// runs of RunMany share the lists, so the mutex guards the table.
type coreColumns struct {
	lead, per []string

	mu    sync.Mutex
	lists map[int][]string
}

var (
	// coreTelemCols: softirq, thread and run-queue-wait time and run-queue
	// length of every core (EnableTelemetry).
	coreTelemCols = &coreColumns{per: []string{"softirq_us", "thread_us", "runq", "runq_wait_us"}}
	// coreBacklogCols: the host's softirq backlog, then each core's
	// (RegisterInspect).
	coreBacklogCols = &coreColumns{lead: []string{"softirq_backlog"}, per: []string{"softirq_backlog"}}
)

// get returns the list for n cores, building it on first use.
func (c *coreColumns) get(n int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.lists[n]; ok {
		return l
	}
	l := make([]string, 0, len(c.lead)+n*len(c.per))
	l = append(l, c.lead...)
	for i := 0; i < n; i++ {
		cp := fmt.Sprintf("core%02d/", i)
		for _, s := range c.per {
			l = append(l, cp+s)
		}
	}
	if c.lists == nil {
		c.lists = make(map[int][]string)
	}
	c.lists[n] = l
	return l
}
