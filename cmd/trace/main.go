// Command trace exports a Chrome-trace timeline (the paper's Figure 1) of
// the first simulated iterations of one training configuration. Load the
// output in chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
)

func main() {
	var (
		model  = flag.String("model", "googlenet", "model name")
		gpus   = flag.Int("gpus", 4, "GPU count")
		batch  = flag.Int("batch", 16, "per-GPU batch size")
		method = flag.String("method", "nccl", "communication method")
		out    = flag.String("o", "trace.json", "output file")
		cap    = flag.Int("max-intervals", 200000, "max retained intervals")
		ascii  = flag.Bool("ascii", false, "also draw the first iterations as a terminal Gantt chart")
		width  = flag.Int("width", 110, "ascii chart width in columns")
	)
	flag.Parse()

	r, err := core.Run(core.Workload{
		Model:          *model,
		GPUs:           *gpus,
		Batch:          *batch,
		Method:         core.Method(*method),
		TraceIntervals: *cap,
	})
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := r.Profile.ExportChromeTrace(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d intervals, %d dropped beyond cap)\n",
		*out, r.Profile.Retained(), r.Profile.Dropped())
	fmt.Println(r.Summary())
	if *ascii {
		// Render the window that covers roughly the first two iterations
		// after setup.
		from := time.Duration(0)
		to := 3 * r.SteadyIter
		for _, iv := range r.Profile.Intervals() {
			if iv.End > from {
				// Find where activity begins to skip the idle setup gap.
				from = iv.Start
				break
			}
		}
		fmt.Println()
		fmt.Print(r.Profile.RenderASCII(from, from+to, *width))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace:", err)
	os.Exit(1)
}
