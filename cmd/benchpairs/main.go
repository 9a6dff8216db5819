// Command benchpairs compares the working tree against a base revision
// on the repository's benchmark. It checks the base out into a git
// worktree under .bench_build/, then runs every BENCHMARK.json workload
// in alternating base/change pairs (the order flips every pair, so a
// drift in the machine's load hits both sides alike), appends every
// stamped result line to bench_history.jsonl, and prints each end-to-end
// metric's median, min–max spread and change/base ratio against its
// bound.
//
// Usage, from the repository root (make bench-pairs BASE=<rev> PAIRS=<n>):
//
//	benchpairs -base REV [-pairs 5]
//
// Every run lasts BENCHMARK.json's run_seconds and uses seed 1, so both
// sides measure the same inputs and every history line is comparable.
//
// Each history line names the code its side ran: "rev" is the commit
// (HEAD for the working tree) and "tree" the git tree hash of the files
// built, tracked and untracked alike except what .gitignore excludes.
// A working tree with changes has a tree other than its rev's, and its
// rev gets a "+modified" suffix. The "commit" in perfbench's own stamp
// cannot tell the sides apart: Go's build stamping does not recognise a
// worktree's .git file and stamps the enclosing checkout instead.
//
// A metric reads "better" or "worse" when its ratio of medians passes
// its bound in that direction, and "within" otherwise; "wins" counts
// the pairs in which the change beat the base. The exit status is 1 when
// a run fails or reports "correct":false, 2 on usage errors.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchmark is the part of BENCHMARK.json this command reads.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
}

// bound is one end-to-end metric with the relative change it may make.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// result is the JSON line that ends every benchmark run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// historyFile is the committed JSON-lines file every stamped result is
// appended to.
const historyFile = "bench_history.jsonl"

// record is one line of the history file: a run's result with the
// environment stamp it printed and its place in the comparison.
type record struct {
	Time   string          `json:"time"`
	Side   string          `json:"side"` // "base" or "change"
	Rev    string          `json:"rev"`
	Tree   string          `json:"tree"`
	Pair   int             `json:"pair"`
	Env    json.RawMessage `json:"env"`
	Result json.RawMessage `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "git revision to compare the working tree against")
	pairs := fs.Int("pairs", 5, "alternating base/change runs per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *pairs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: benchpairs -base REV [-pairs N]")
		return 2
	}
	if err := compare(*base, *pairs, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "benchpairs:", err)
		return 1
	}
	return 0
}

// compare runs the whole comparison from the repository root.
func compare(base string, pairs int, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bench benchmark
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	rev, err := git("rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return err
	}
	baseTree, err := git("rev-parse", rev+"^{tree}")
	if err != nil {
		return err
	}
	head, err := git("rev-parse", "HEAD")
	if err != nil {
		return err
	}
	tree, err := workingTree()
	if err != nil {
		return err
	}
	if headTree, err := git("rev-parse", "HEAD^{tree}"); err != nil {
		return err
	} else if tree != headTree {
		head += "+modified"
	}
	dir := filepath.Join(".bench_build", "base-"+rev[:12])
	if _, err := os.Stat(dir); err == nil {
		// Left behind by an interrupted comparison.
		if _, err := git("worktree", "remove", "--force", dir); err != nil {
			return err
		}
	}
	if _, err := git("worktree", "add", "--detach", dir, rev); err != nil {
		return err
	}
	defer func() {
		if _, err := git("worktree", "remove", "--force", dir); err != nil {
			fmt.Fprintln(stderr, "benchpairs:", err)
		}
	}()
	hist, err := os.OpenFile(historyFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer hist.Close()

	sides := [2]struct{ name, dir, rev, tree string }{{"base", dir, rev, baseTree}, {"change", ".", head, tree}}
	// runs[w][side] holds workload w's results on one side in pair order.
	runs := make([][2][]result, len(bench.Workloads))
	var failed []string
	for p := 0; p < pairs; p++ {
		for w, wl := range bench.Workloads {
			for k := 0; k < 2; k++ {
				s := (k + p) % 2
				fmt.Fprintf(stderr, "benchpairs: pair %d/%d %s %s\n", p+1, pairs, wl.Name, sides[s].name)
				env, line, res, err := runOnce(sides[s].dir, bench, wl.Name, stderr)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", wl.Name, sides[s].name, err)
				}
				if !res.Correct {
					failed = append(failed, fmt.Sprintf("%s %s pair %d", wl.Name, sides[s].name, p+1))
				}
				runs[w][s] = append(runs[w][s], res)
				rec, err := json.Marshal(record{
					//qarv:allow nondeterminism the history stamps each run with when it ran
					Time: time.Now().UTC().Format(time.RFC3339), Side: sides[s].name, Rev: sides[s].rev, Tree: sides[s].tree, Pair: p + 1,
					Env: env, Result: line,
				})
				if err != nil {
					return err
				}
				if _, err := fmt.Fprintf(hist, "%s\n", rec); err != nil {
					return err
				}
			}
		}
	}
	fmt.Fprintf(stdout, "base %s vs working tree, %d pairs, %d s runs\n", rev[:12], pairs, bench.RunSeconds)
	for w, wl := range bench.Workloads {
		if err := report(stdout, wl.Name, runs[w], bench.EndToEnd); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("runs not correct: %s", strings.Join(failed, ", "))
	}
	return nil
}

// runOnce runs one workload in dir and returns its environment stamp,
// its raw result line and the parsed result.
func runOnce(dir string, bench benchmark, workload string, stderr io.Writer) (env, line json.RawMessage, res result, err error) {
	if len(bench.Command) == 0 {
		return nil, nil, res, errors.New("BENCHMARK.json has no command")
	}
	args := append(bench.Command[1:len(bench.Command):len(bench.Command)],
		"--workload", workload, "--seed", "1",
		"--seconds", fmt.Sprint(bench.RunSeconds), "--trace", "0")
	cmd := exec.Command(bench.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	env, line = parseOutput(out)
	if line == nil {
		if runErr == nil {
			runErr = errors.New("no result line")
		}
		return nil, nil, res, runErr
	}
	// A run whose checks fail exits non-zero after its result line,
	// which then reports "correct":false.
	if err := json.Unmarshal(line, &res); err != nil {
		return nil, nil, res, fmt.Errorf("result line: %w", err)
	}
	return env, line, res, nil
}

// parseOutput picks a run's environment stamp (the "# env" comment) and
// its result (the last line) out of its standard output.
func parseOutput(out []byte) (env, line json.RawMessage) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	var last string
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(t, "# env "); ok && json.Valid([]byte(rest)) {
			env = json.RawMessage(rest)
		}
		if t != "" {
			last = t
		}
	}
	if strings.HasPrefix(last, "{") && json.Valid([]byte(last)) {
		line = json.RawMessage(last)
	}
	return env, line
}

// report prints one workload's comparison table.
func report(w io.Writer, workload string, runs [2][]result, bounds []bound) error {
	fmt.Fprintf(w, "\n%s\n", workload)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tbase median\tbase min–max\tchange median\tchange min–max\tchange/base\tbound\tverdict\twins")
	for _, b := range bounds {
		base, change := values(runs[0], b.Name), values(runs[1], b.Name)
		if len(base) == 0 || len(change) == 0 {
			continue
		}
		bm, cm := median(base), median(change)
		blo, bhi := spread(base)
		clo, chi := spread(change)
		r := ratio(cm, bm)
		fmt.Fprintf(tw, "  %s\t%.4g %s\t%.4g–%.4g\t%.4g %s\t%.4g–%.4g\t%.3f\t%.2f\t%s\t%d/%d\n",
			b.Name, bm, b.Unit, blo, bhi, cm, b.Unit, clo, chi, r, b.Bound,
			verdict(r, b.Better, b.Bound), wins(base, change, b.Better), min(len(base), len(change)))
	}
	bf, ba := ops(runs[0])
	cf, ca := ops(runs[1])
	fmt.Fprintf(tw, "  failed ops\t%d of %d\t\t%d of %d\n", bf, ba, cf, ca)
	return tw.Flush()
}

// values returns metric name from every run that reports it.
func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// ops totals the failed and attempted operations of runs.
func ops(runs []result) (failed, attempted int) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// median returns the middle of xs, the mean of the two middle values
// for an even count, and 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spread returns the smallest and largest of xs.
func spread(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// ratio returns change/base: 1 when both are 0, +Inf when only base is.
func ratio(change, base float64) float64 {
	switch {
	case change == base:
		return 1
	case base == 0:
		return math.Inf(1)
	}
	return change / base
}

// verdict places a change/base ratio against a metric's bound: "worse"
// past 1+bound for a lower-is-better metric (below 1-bound for a
// higher-is-better one), "better" past the bound the other way, and
// "within" otherwise.
func verdict(r float64, better string, bound float64) string {
	if better == "higher" {
		r = 2 - r
	}
	switch {
	case r > 1+bound:
		return "worse"
	case r < 1-bound:
		return "better"
	}
	return "within"
}

// wins counts the pairs in which the change beat the base.
func wins(base, change []float64, better string) int {
	n := 0
	for i := 0; i < len(base) && i < len(change); i++ {
		if (better == "higher" && change[i] > base[i]) || (better != "higher" && change[i] < base[i]) {
			n++
		}
	}
	return n
}

// workingTree returns the git tree hash of the working tree as it would
// be committed with everything added: tracked files as they are now and
// untracked ones not ignored. It stages into a scratch index, so the
// repository's own index is left alone.
func workingTree() (string, error) {
	dir, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	env := append(os.Environ(), "GIT_INDEX_FILE="+filepath.Join(dir, "index"))
	if _, err := gitEnv(env, "add", "--all"); err != nil {
		return "", err
	}
	return gitEnv(env, "write-tree")
}

// git runs a git command and returns its trimmed standard output.
func git(args ...string) (string, error) {
	return gitEnv(nil, args...)
}

// gitEnv runs a git command in the environment env (nil: this
// process's) and returns its trimmed standard output.
func gitEnv(env []string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Env = env
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(ee.Stderr))
		}
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
