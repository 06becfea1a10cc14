package netupdate

import (
	"context"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ipdelta/internal/diff"
	"ipdelta/internal/netupdate/mux"
	"ipdelta/internal/obs"
)

// TestOptionSurfaceCovers pins each option to the config field it sets,
// per constructor, so a renamed field cannot silently orphan an option.
func TestOptionSurfaceCovers(t *testing.T) {
	algo := diff.NewGreedy()
	reg := obs.NewRegistry()
	logger := obs.NopLogger()
	slept := false
	sleep := func(context.Context, time.Duration) error { slept = true; return nil }
	limits := mux.Settings{MaxStreams: 9, InitialWindow: 1 << 20, MaxFrame: 2 << 10}

	server := serverConfig([]ServerOption{
		WithAlgorithm(algo),
		WithFailureBudget(3),
		WithMessageTimeout(time.Second),
		WithObserver(reg),
		WithLogger(logger),
		WithStreamLimit(9),
		WithInitialWindow(1 << 20),
		WithMaxFrame(2 << 10),
	})
	client := clientConfig([]ClientOption{
		WithMessageTimeout(time.Second),
		WithObserver(reg),
		WithLogger(logger),
		WithMaxAttempts(2),
		WithBaseBackoff(time.Millisecond),
		WithFullFallbackAfter(7),
		WithSeed(42),
		WithSleep(sleep),
	})
	conn := connConfig([]ConnOption{
		WithStreamLimit(9),
		WithInitialWindow(1 << 20),
		WithMaxFrame(2 << 10),
	})
	_ = client.sleep(context.Background(), 0)
	if !slept {
		t.Fatal("WithSleep did not install the sleep function")
	}
	client.sleep = nil

	for _, c := range []struct {
		name      string
		got, want config
	}{
		{"NewServer", server, config{algorithm: algo, failureBudget: 3, messageTimeout: time.Second,
			observer: reg, logger: logger, mux: limits}},
		{"NewClient", client, config{messageTimeout: time.Second, observer: reg, logger: logger,
			maxAttempts: 2, baseBackoff: time.Millisecond, fullFallbackAfter: 7, seed: 42}},
		{"Dial", conn, config{mux: limits}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s options applied %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

// TestOptionSurfaceTypecheck typechecks calls against the package's
// source: every option a constructor reads is accepted, and every option
// it would ignore, every argument to Update and every deleted name is a
// compile error.
func TestOptionSurfaceTypecheck(t *testing.T) {
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if _, err := imp.ImportFrom("ipdelta/internal/netupdate", dir, 0); err != nil {
		t.Fatalf("import netupdate from source: %v", err)
	}
	check := func(stmt string) error {
		src := `package p

import (
	"context"
	"net"

	. "ipdelta/internal/netupdate"
)

func f(ctx context.Context, h [][]byte, addr string, conn net.Conn, cc *ClientConn) {
	` + stmt + `
}
`
		file, err := parser.ParseFile(fset, "p.go", src, 0)
		if err != nil {
			t.Fatalf("parse %q: %v", stmt, err)
		}
		conf := types.Config{Importer: imp}
		_, err = conf.Check("p", fset, []*ast.File{file}, nil)
		return err
	}

	// Each option call, and the constructors that read it.
	readers := []struct {
		option  string
		surface string // S = NewServer, C = NewClient, D = Dial and NewClientConn
	}{
		{"WithAlgorithm(nil)", "S"},
		{"WithFailureBudget(1)", "S"},
		{"WithMaxAttempts(8)", "C"},
		{"WithBaseBackoff(1)", "C"},
		{"WithFullFallbackAfter(3)", "C"},
		{"WithSeed(1)", "C"},
		{"WithSleep(nil)", "C"},
		{"WithObserver(nil)", "SC"},
		{"WithLogger(nil)", "SC"},
		{"WithStreamLimit(1)", "SD"},
		{"WithInitialWindow(1)", "SD"},
		{"WithMaxFrame(1)", "SD"},
		{"WithMessageTimeout(1)", "SC"},
	}
	constructors := []struct {
		surface string
		call    string // %s is the option
	}{
		{"S", "NewServer(h, %s)"},
		{"C", "NewClient(%s)"},
		{"D", "Dial(ctx, addr, %s)"},
		{"D", "NewClientConn(conn, %s)"},
	}
	for _, r := range readers {
		for _, c := range constructors {
			stmt := strings.Replace(c.call, "%s", r.option, 1)
			err := check(stmt)
			if reads := strings.Contains(r.surface, c.surface); reads && err != nil {
				t.Errorf("%s must typecheck: %v", stmt, err)
			} else if !reads && err == nil {
				t.Errorf("%s typechecks, but %s ignores the option", stmt, strings.SplitN(c.call, "(", 2)[0])
			}
		}
	}
	for _, stmt := range []string{
		"cc.Update(ctx, nil, WithMessageTimeout(1))",
		"_ = Config{}",
		"_ = WithRequestFull(true)",
		"Run(ctx, conn, nil)",
	} {
		if check(stmt) == nil {
			t.Errorf("%s typechecks", stmt)
		}
	}
	if err := check("cc.Update(ctx, nil)"); err != nil {
		t.Errorf("cc.Update(ctx, nil) must typecheck: %v", err)
	}
}

// TestUpdateRunsOneSession: ClientConn.Update is one session on one
// stream. A session the retry Client would degrade and retry comes back
// as its error, after exactly one session on the server.
func TestUpdateRunsOneSession(t *testing.T) {
	v1 := makeHistory(1, 8<<10, 71)[0]
	v2 := append(append([]byte(nil), v1...), v1[:4<<10]...)
	reg := obs.NewRegistry()
	srv, err := NewServer([][]byte{v1, v2}, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := Dial(context.Background(), serveTCP(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// The flash holds v1 exactly, so v2 cannot fit: the server refuses.
	_, err = cc.Update(context.Background(), deviceFor(t, v1, int64(len(v1))))
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("Update on a too-small flash returned %v, want a *ServerError", err)
	}
	if got := reg.Snapshot().Counter("ipdelta_server_sessions_total"); got != 1 {
		t.Fatalf("server ran %d sessions for one Update, want 1", got)
	}
}
