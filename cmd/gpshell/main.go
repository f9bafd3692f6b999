// Command gpshell is an interactive SQL shell over an in-process cluster —
// a tiny psql for exploring the engine.
//
//	gpshell [-segments 4] [-mode gpdb6|gpdb5] [-mem bytes] [-rg] [-replica sync|async] [-f script.sql]
//	gpshell -listen 127.0.0.1:6432 [-segments 4] ...   # serve the wire protocol
//	gpshell -connect 127.0.0.1:6432 [-role name]       # remote shell over TCP
//
// -listen boots the cluster and serves it over the framed wire protocol
// (internal/server); -connect dials such a server instead of embedding a
// cluster, so many shells (and many test clients) can share one instance.
//
// -rg runs the session under its resource group (admission, CPU and memory
// enforcement — including the memory_spill_ratio spill budget); -mem sizes
// the simulated cluster memory, so a small value plus -rg makes analytical
// queries spill (watch SHOW spill_stats). -replica gives every segment a
// WAL-streaming mirror so failover is drivable interactively: \kill N
// fails segment N's primary (FTS promotes the mirror), \recover N rebuilds
// redundancy.
//
// Shell commands: \d (list tables), \dg (resource groups), \locks (lock
// tables), \stats (cluster counters), \top [n] (live monitor: n one-second
// samples of active sessions and the hottest metric deltas), \kill <seg>,
// \recover <seg>, \expand [<n>] (grow the cluster online / show rebalance
// progress), \fault, \timing, \q. Under -connect only the ones that are SQL
// underneath (\stats, \fault, \expand) and \timing, \q work.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	greenplum "repro"
	"repro/internal/server"
	"repro/internal/server/client"
)

func main() {
	var (
		segments = flag.Int("segments", 4, "number of segments")
		mode     = flag.String("mode", "gpdb6", "gpdb6 (HTAP features) or gpdb5 (baseline)")
		mem      = flag.Int64("mem", 0, "simulated cluster memory in bytes (0 = default 8 GiB)")
		useRG    = flag.Bool("rg", false, "enforce the session's resource group (memory budget + spilling)")
		replica  = flag.String("replica", "", "mirror replication: sync or async (default off)")
		file     = flag.String("f", "", "run a SQL script and exit")
		listen   = flag.String("listen", "", "serve the wire protocol on this address instead of opening a shell")
		connect  = flag.String("connect", "", "connect to a gpshell -listen server instead of embedding a cluster")
		role     = flag.String("role", "", "role to connect as (with -connect)")
		metrics  = flag.String("metrics", "", "with -listen: also serve Prometheus /metrics and pprof on this address")
	)
	flag.Parse()
	ctx := context.Background()

	if *connect != "" {
		cl, err := client.Dial(*connect, *role)
		if err != nil {
			fmt.Fprintln(os.Stderr, "connect:", err)
			os.Exit(1)
		}
		defer cl.Close()
		fmt.Printf("gpshell: connected to %s (session %d). \\q quits.\n", *connect, cl.SessionID())
		sh := &shell{exec: func(ctx context.Context, sql string, args ...greenplum.Datum) (*greenplum.Result, error) {
			res, err := cl.Exec(ctx, sql, args...)
			if err != nil {
				if _, ok := err.(*client.ServerError); !ok {
					fmt.Println("ERROR:", err)
					fmt.Fprintln(os.Stderr, "connection lost")
					os.Exit(1)
				}
				return nil, err
			}
			return &greenplum.Result{Columns: res.Columns, Rows: res.Rows, RowsAffected: int(res.RowsAffected), Tag: res.Tag}, nil
		}}
		sh.repl(ctx)
		return
	}

	opts := greenplum.Options{Segments: *segments, MemoryBytes: *mem, Replica: *replica}
	if strings.EqualFold(*mode, "gpdb5") {
		opts.Mode = greenplum.ModeGPDB5
	}
	db, err := greenplum.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()

	if *listen != "" {
		srv := server.New(db.Engine(), server.Config{Addr: *listen, UseResourceGroups: *useRG, MetricsAddr: *metrics})
		if err := srv.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("gpshell: serving %d segments on %s (ctrl-c drains and exits)\n", *segments, srv.Addr())
		if ma := srv.MetricsAddr(); ma != "" {
			fmt.Printf("gpshell: metrics on http://%s/metrics (pprof under /debug/pprof/)\n", ma)
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		fmt.Println("gpshell: draining...")
		_ = srv.Shutdown(context.Background())
		return
	}

	conn, err := db.Connect("")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *useRG {
		conn.UseResourceGroup(true, 0)
	}

	if *file != "" {
		script, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := conn.ExecScript(ctx, string(script)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("gpshell: %d segments, %s mode. \\q quits, \\d lists tables.\n", *segments, *mode)
	sh := &shell{db: db, exec: conn.Exec}
	sh.repl(ctx)
}

// shell is one REPL. exec runs a statement over whichever connection the
// shell has — the embedded session or the wire client; db is the embedded
// instance the cluster-side meta commands reach into (nil under -connect).
type shell struct {
	exec   func(ctx context.Context, sql string, args ...greenplum.Datum) (*greenplum.Result, error)
	db     *greenplum.DB
	timing bool
}

// repl reads stdin until EOF or \q: a backslash line at a fresh prompt is a
// meta command; anything else accumulates until a line containing ';' and
// runs as one statement.
func (sh *shell) repl(ctx context.Context) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("gp> ")
		} else {
			fmt.Print("..> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !sh.metaCommand(ctx, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		stmt := buf.String()
		buf.Reset()
		sh.sql(ctx, strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
		prompt()
	}
}

// sql runs one statement — typed, or the one a meta command stands for — and
// prints its outcome.
func (sh *shell) sql(ctx context.Context, stmt string) {
	t0 := time.Now()
	res, err := sh.exec(ctx, stmt)
	elapsed := time.Since(t0)
	if err != nil {
		fmt.Println("ERROR:", err)
		return
	}
	printResult(res)
	if sh.timing {
		fmt.Printf("Time: %.3f ms\n", float64(elapsed.Microseconds())/1000)
	}
}

// metaCommand runs one backslash command; false means quit. The commands
// that are SQL underneath come first and work over any connection; the rest
// need the embedded cluster.
func (sh *shell) metaCommand(ctx context.Context, cmd string) bool {
	db := sh.db
	switch {
	case cmd == "\\q":
		return false
	case cmd == "\\timing":
		sh.timing = !sh.timing
		fmt.Println("timing:", sh.timing)
	case cmd == "\\stats":
		// Every engine counter is a registry series (docs/OBSERVABILITY.md);
		// the FTS view of each segment has no SQL form, so it is embedded-only.
		sh.sql(ctx, "SHOW gp_stat_metrics")
		if db != nil {
			for i, state := range db.SegmentStates() {
				fmt.Printf("  segment %d: %s\n", i, state)
			}
		}
	case strings.HasPrefix(cmd, "\\fault"):
		// \fault inject 'wal_flush' segment 1 — sugar for the FAULT statement.
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\fault"))
		if rest == "" {
			rest = "STATUS"
		}
		sh.sql(ctx, "FAULT "+rest)
	case strings.HasPrefix(cmd, "\\expand"):
		// \expand <n> grows the cluster online; bare \expand shows progress.
		stmt := "SHOW expand_status"
		if n, ok := segArg(cmd, "\\expand"); ok {
			stmt = fmt.Sprintf("ALTER SYSTEM EXPAND TO %d", n)
		}
		sh.sql(ctx, stmt)
	case db == nil:
		fmt.Println("remote shell commands: \\stats \\fault \\expand \\timing \\q (server-side state via SHOW ...)")
	case cmd == "\\d":
		for _, t := range db.Engine().Cluster().Catalog().Tables() {
			kind := t.Storage.String()
			extra := ""
			if t.IsPartitioned() {
				extra = fmt.Sprintf(", %d partitions", len(t.Partitions))
			}
			fmt.Printf("  %-24s %s, distributed %s%s\n", t.Name, kind, t.Distribution, extra)
		}
	case cmd == "\\dg":
		for _, g := range db.Engine().Cluster().Catalog().ResourceGroups() {
			fmt.Printf("  %-16s concurrency=%d cpu=%d%% cpuset=%q memory=%d%%\n",
				g.Name, g.Concurrency, g.CPURateLimit, g.CPUSet, g.MemoryLimit)
		}
	case cmd == "\\locks":
		fmt.Println("coordinator:")
		for _, l := range db.Engine().Cluster().CoordinatorLocks().Dump() {
			fmt.Println("  ", l)
		}
		for _, seg := range db.Engine().Cluster().Segments() {
			fmt.Printf("segment %d:\n", seg.ID())
			for _, l := range seg.Locks().Dump() {
				fmt.Println("  ", l)
			}
		}
	case strings.HasPrefix(cmd, "\\kill"):
		seg, ok := segArg(cmd, "\\kill")
		if !ok {
			fmt.Println("usage: \\kill <segment>")
			break
		}
		if err := db.KillSegment(seg); err != nil {
			fmt.Println("ERROR:", err)
			break
		}
		fmt.Printf("segment %d primary killed; FTS will promote its mirror if one exists\n", seg)
	case strings.HasPrefix(cmd, "\\recover"):
		seg, ok := segArg(cmd, "\\recover")
		if !ok {
			fmt.Println("usage: \\recover <segment>")
			break
		}
		if err := db.Recover(seg); err != nil {
			fmt.Println("ERROR:", err)
			break
		}
		fmt.Printf("segment %d recovered\n", seg)
	case strings.HasPrefix(cmd, "\\top"):
		rounds := 5
		if n, ok := segArg(cmd, "\\top"); ok && n > 0 {
			rounds = n
		}
		topMonitor(db, rounds)
	default:
		fmt.Println("unknown command; try \\d \\dg \\locks \\stats \\top \\fault \\kill \\recover \\expand \\timing \\q")
	}
	return true
}

// topMonitor is the \top live monitor: one sample per second showing live
// sessions (gp_stat_activity), the hottest metric deltas since the previous
// sample, and the most recent finished queries.
func topMonitor(db *greenplum.DB, rounds int) {
	reg := db.Engine().Metrics()
	act := db.Engine().Activity()
	prev := reg.Snapshot()
	for i := 0; i < rounds; i++ {
		time.Sleep(time.Second)
		snap := reg.Snapshot()
		delta := snap.Delta(prev)
		prev = snap
		fmt.Printf("-- top %d/%d --\n", i+1, rounds)
		for _, si := range act.Sessions() {
			q := si.Query
			if len(q) > 60 {
				q = q[:60] + "..."
			}
			fmt.Printf("  [%3d] %-8s %-6s stmts=%-6d %s\n", si.ID, si.Role, si.State, si.Statements, q)
		}
		type kv struct {
			name string
			v    int64
		}
		var hot []kv
		for n, v := range delta {
			if v > 0 {
				hot = append(hot, kv{n, v})
			}
		}
		sort.Slice(hot, func(a, b int) bool {
			if hot[a].v != hot[b].v {
				return hot[a].v > hot[b].v
			}
			return hot[a].name < hot[b].name
		})
		if len(hot) > 12 {
			hot = hot[:12]
		}
		for _, h := range hot {
			fmt.Printf("  %-40s +%d/s\n", h.name, h.v)
		}
		for _, r := range act.History(3) {
			fmt.Printf("  recent: q%d %.1fms rows=%d %s\n", r.QueryID, float64(r.Dur)/1e6, r.Rows, r.SQL)
		}
	}
}

// segArg parses the segment number of "\kill N" / "\recover N".
func segArg(cmd, prefix string) (int, bool) {
	rest := strings.TrimSpace(strings.TrimPrefix(cmd, prefix))
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func printResult(res *greenplum.Result) {
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
		fmt.Println(strings.Repeat("-", len(strings.Join(res.Columns, " | "))))
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, d := range row {
				parts[i] = d.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		fmt.Printf("(%d rows)\n", len(res.Rows))
		return
	}
	fmt.Println(res.Tag)
}
