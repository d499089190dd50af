package transport

import (
	"context"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"os"
	"sync"
	"testing"

	"zaatar/internal/pcp"
	"zaatar/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreWarmRestart is the tentpole scenario: a service compiles a
// program once and persists the bundle; a brand-new service process over
// the same directory then serves a hash-first session with no compile, no
// preprocess, and no source upload — observed through the metrics and
// through the client's own trace.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}

	svc1, reg1 := testService(ServiceOptions{Workers: 2, Store: openStore(t, dir)})
	client1, errCh1 := servicePipe(svc1)
	res, err := runSession(context.Background(), client1, hello,
		ClientOptions{Seed: []byte("w1")}, instances(10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	if err := <-errCh1; err != nil {
		t.Fatalf("server: %v", err)
	}
	svc1.FlushStore()
	if got := reg1.Counter(MetricStoreMisses).Value(); got != 1 {
		t.Fatalf("cold store misses = %d, want 1", got)
	}
	if got := reg1.Counter(MetricHelloSourceSkipped).Value(); got != 0 {
		t.Fatalf("cold run skipped %d uploads, want 0 (server had to ask)", got)
	}
	key := store.KeyFor(sessionSrc, "F128", pcp.BackendZaatar)
	if !openStore(t, dir).Contains(key) {
		t.Fatal("no bundle written back after the cold session")
	}

	// "Restart": a fresh Service and a fresh Store handle over the same
	// directory — nothing shared in memory.
	svc2, reg2 := testService(ServiceOptions{Workers: 2, Store: openStore(t, dir)})
	ctx2, tc2 := tracedContext(t)
	client2, errCh2 := servicePipe(svc2)
	res, err = runSession(ctx2, client2, hello,
		ClientOptions{Seed: []byte("w2")}, instances(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("warm restart rejected: %v", res.Reasons)
	}
	if err := <-errCh2; err != nil {
		t.Fatalf("warm server: %v", err)
	}
	if got := reg2.Counter(MetricStoreHits).Value(); got != 1 {
		t.Fatalf("store hits = %d, want 1", got)
	}
	if got := reg2.Counter(MetricStoreMisses).Value(); got != 0 {
		t.Fatalf("store misses = %d, want 0", got)
	}
	if got := reg2.Counter(MetricHelloSourceSkipped).Value(); got != 1 {
		t.Fatalf("source uploads skipped = %d, want 1", got)
	}
	if got := reg2.Counter(MetricStoreBytesSaved).Value(); got != int64(len(sessionSrc)) {
		t.Fatalf("bytes saved = %d, want %d", got, len(sessionSrc))
	}
	// The client's stitched trace is the ground truth: the warm restart ran
	// neither the compiler nor the preprocessor, and did hit the disk.
	recs := tc2.Recorder().Snapshot()
	if n := len(byName(recs, "prover.compile")); n != 0 {
		t.Fatalf("warm restart ran %d prover.compile spans", n)
	}
	if n := len(byName(recs, "prover.preprocess")); n != 0 {
		t.Fatalf("warm restart ran %d prover.preprocess spans", n)
	}
	if n := len(byName(recs, "prover.store.load")); n != 1 {
		t.Fatalf("prover.store.load spans = %d, want 1", n)
	}
}

// TestHashFirstMemoryWarm drives two hash-first sessions against one
// storeless service: the first uploads on SourceNeeded, the second opens
// off the memory tier with no upload at all.
func TestHashFirstMemoryWarm(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	for i, want := range []int64{0, 1} {
		client, errCh := servicePipe(svc)
		res, err := runSession(context.Background(), client, hello,
			ClientOptions{Seed: []byte{byte(i)}}, instances(5))
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if !res.AllAccepted() {
			t.Fatalf("session %d rejected: %v", i, res.Reasons)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		if got := reg.Counter(MetricHelloSourceSkipped).Value(); got != want {
			t.Fatalf("after session %d: skipped = %d, want %d", i, got, want)
		}
	}
	if got := reg.Counter(MetricCacheHits).Value(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
}

// TestConcurrentColdCompileSingleflight races hash-first sessions at a
// storeless cold service: exactly one session is asked to upload and
// exactly one compile runs; everyone else rides the singleflight entry.
func TestConcurrentColdCompileSingleflight(t *testing.T) {
	const n = 6
	svc, reg := testService(ServiceOptions{Workers: 2, MaxSessions: n})
	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, errCh := servicePipe(svc)
			res, err := runSession(context.Background(), client, hello,
				ClientOptions{Seed: []byte{byte(i)}}, instances(int64(i+1)))
			if err == nil && !res.AllAccepted() {
				err = errors.New("batch rejected")
			}
			if serr := <-errCh; err == nil && serr != nil {
				err = serr
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if got := reg.Counter(MetricCacheMisses).Value(); got != 1 {
		t.Fatalf("cache misses = %d, want 1 (one compile for %d sessions)", got, n)
	}
	if got := reg.Counter(MetricCacheHits).Value(); got != n-1 {
		t.Fatalf("cache hits = %d, want %d", got, n-1)
	}
	if got := reg.Counter(MetricHelloSourceSkipped).Value(); got != n-1 {
		t.Fatalf("skipped uploads = %d, want %d (only the singleflight winner uploads)", got, n-1)
	}
}

// TestConcurrentColdDiskLoadSingleflight races hash-first sessions at a
// fresh service whose store already holds the bundle: the disk load runs
// exactly once, nothing compiles, and no session uploads the source.
func TestConcurrentColdDiskLoadSingleflight(t *testing.T) {
	dir := t.TempDir()
	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}

	seed, _ := testService(ServiceOptions{Workers: 2, Store: openStore(t, dir)})
	client0, errCh0 := servicePipe(seed)
	if _, err := runSession(context.Background(), client0, hello,
		ClientOptions{Seed: []byte("s")}, instances(3)); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh0; err != nil {
		t.Fatal(err)
	}
	seed.FlushStore()

	const n = 6
	svc, reg := testService(ServiceOptions{Workers: 2, MaxSessions: n, Store: openStore(t, dir)})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, errCh := servicePipe(svc)
			res, err := runSession(context.Background(), client, hello,
				ClientOptions{Seed: []byte{byte(i)}}, instances(int64(i+1)))
			if err == nil && !res.AllAccepted() {
				err = errors.New("batch rejected")
			}
			if serr := <-errCh; err == nil && serr != nil {
				err = serr
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if got := reg.Counter(MetricStoreHits).Value(); got != 1 {
		t.Fatalf("store hits = %d, want 1 (one load for %d sessions)", got, n)
	}
	if got := reg.Counter(MetricStoreMisses).Value(); got != 0 {
		t.Fatalf("store misses = %d, want 0", got)
	}
	if got := reg.Counter(MetricHelloSourceSkipped).Value(); got != n {
		t.Fatalf("skipped uploads = %d, want %d", got, n)
	}
}

// TestStoreCorruptBundleRecompiles damages the bundle on disk: the service
// treats it as a miss, recompiles, serves the session — and its write-back
// atomically replaces the damaged file.
func TestStoreCorruptBundleRecompiles(t *testing.T) {
	dir := t.TempDir()
	hello := Hello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}
	key := store.KeyFor(sessionSrc, "F128", pcp.BackendZaatar)

	seed, _ := testService(ServiceOptions{Workers: 2, Store: openStore(t, dir)})
	client0, errCh0 := servicePipe(seed)
	if _, err := runSession(context.Background(), client0, hello,
		ClientOptions{Seed: []byte("s")}, instances(3)); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh0; err != nil {
		t.Fatal(err)
	}
	seed.FlushStore()

	st := openStore(t, dir)
	raw, err := os.ReadFile(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(st.Path(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, reg := testService(ServiceOptions{Workers: 2, Store: st})
	client, errCh := servicePipe(svc)
	res, err := runSession(context.Background(), client, hello,
		ClientOptions{Seed: []byte("c")}, instances(9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := reg.Counter(MetricStoreMisses).Value(); got != 1 {
		t.Fatalf("store misses = %d, want 1 (corrupt bundle is a miss)", got)
	}
	svc.FlushStore()
	if _, err := st.Load(key); err != nil {
		t.Fatalf("write-back did not heal the corrupt bundle: %v", err)
	}
}

// TestMaxSourceBytes covers the configurable source bound on the one
// ingestion path, the source upload.
func TestMaxSourceBytes(t *testing.T) {
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	t.Run("upload", func(t *testing.T) {
		svc, _ := testService(ServiceOptions{Workers: 1, MaxSourceBytes: 16})
		client, errCh := servicePipe(svc)
		_, err := runSession(context.Background(), client, hello,
			ClientOptions{}, instances(2))
		var rErr *RemoteError
		if !errors.As(err, &rErr) || rErr.Phase != "hello" {
			t.Fatalf("client err = %v, want hello-phase RemoteError", err)
		}
		if err := <-errCh; !errors.Is(err, ErrSourceTooLarge) {
			t.Fatalf("server err = %v, want ErrSourceTooLarge", err)
		}
	})
}

// TestSourceUploadHashMismatch speaks raw gob and uploads a source that does
// not match the hello's digest; the server must refuse to compile it.
func TestSourceUploadHashMismatch(t *testing.T) {
	svc, _ := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	defer client.Close()
	enc, dec := gob.NewEncoder(client), gob.NewDecoder(client)

	claimed := sha256.Sum256([]byte(sessionSrc))
	h := Hello{Version: ProtocolVersion, SourceHash: claimed[:], RhoLin: 1, Rho: 1, NoCommitment: true, Backends: []string{pcp.BackendZaatar}}
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if !ack.SourceNeeded {
		t.Fatalf("expected SourceNeeded, got %+v", ack)
	}
	if err := enc.Encode(SourceMsg{Source: sessionSrc + "\n// tampered"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" {
		t.Fatal("server accepted a source that does not match the claimed hash")
	}
	if err := <-errCh; !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("server err = %v, want ErrMalformedHello", err)
	}
}
