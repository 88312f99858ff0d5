package main

// Child processes: one hoihod-style node or one hoihoc-style router,
// hosting serve.New(...).Handler() or cluster.NewRouter(...).Handler()
// on a loopback port the way cmd/hoihod and cmd/hoihoc do. The parent
// starts them by re-executing its own binary with -child; a child
// prints "listen <addr>" once it accepts connections, drains on
// SIGTERM, writes its spans (traced runs only) and exits 0.
//
// A third role, "run", runs one command and prints its wall time and
// peak RSS. Starting the measured command from this small process
// keeps the benchmark's own memory out of the command's ru_maxrss,
// which a vfork-started child inherits from its parent.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hoiho/internal/cluster"
	"hoiho/internal/serve"
)

func childMain(args []string) int {
	if err := runChild(args); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func runChild(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	role := fs.String("role", "", "node or router")
	name := fs.String("name", "", "process name recorded on spans")
	corpus := fs.String("corpus", "", "node: corpus file to serve")
	nodes := fs.String("nodes", "", "router: comma-separated node base URLs")
	journal := fs.String("journal", "", "router: rollout journal directory")
	spansPath := fs.String("spans", "", "write recorded spans here on exit")
	trace := fs.Bool("trace", false, "wrap Handler() in span middleware (recording starts off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *role == "run" {
		return runMeasured(fs.Args())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	var h http.Handler
	var drain func(context.Context) error
	var parent string
	switch *role {
	case "node":
		srv, err := serve.New(serve.Config{CorpusPath: *corpus, Classes: "all"})
		if err != nil {
			return err
		}
		h, drain, parent = srv.Handler(), srv.Drain, "router"
	case "router":
		rt, err := cluster.NewRouter(cluster.Config{
			Nodes:       strings.Split(*nodes, ","),
			JournalPath: *journal,
		})
		if err != nil {
			return err
		}
		probeCtx, cancelProbes := context.WithCancel(context.Background())
		defer func() {
			cancelProbes()
			rt.Wait()
		}()
		rt.Start(probeCtx)
		if err := rt.Resume(ctx); err != nil {
			return fmt.Errorf("journal resume: %w", err)
		}
		h, parent = rt.Handler(), "client"
	default:
		return fmt.Errorf("unknown -role %q", *role)
	}
	rec := newRecorder(*name, parent)
	if *trace {
		h = rec.wrap(h)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("listen %s\n", ln.Addr())

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if drain != nil {
		if err := drain(shutCtx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	if *spansPath != "" {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return writeSpans(*spansPath, rec.spans)
	}
	return nil
}

// runMeasured runs argv, discarding its standard output, and prints
// "<wall ns> <peak RSS kB>" on success.
func runMeasured(argv []string) error {
	if len(argv) == 0 {
		return fmt.Errorf("-role run needs a command")
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", argv[0], err)
	}
	wall := time.Since(t0)
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return fmt.Errorf("no rusage for %s", argv[0])
	}
	fmt.Printf("%d %d\n", wall.Nanoseconds(), ru.Maxrss)
	return nil
}
