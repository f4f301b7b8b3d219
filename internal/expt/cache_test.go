package expt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// TestWarmupKeyCoalescesAndSplits pins the content-addressing contract:
// configurations describing the same simulator share a key (independently
// allocated Geometry/Timing, zero fields vs their defaults), and changing any
// single Config field — walked by reflection so a new field can't dodge the
// test — splits it. So does the footprint.
func TestWarmupKeyCoalescesAndSplits(t *testing.T) {
	base, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, quickOptions())
	if !ok {
		t.Fatal("configFor failed")
	}
	const fp = 1 << 20
	key := WarmupKey(base, fp)

	// Value-equal Geometry behind a different pointer must coalesce.
	clone := base
	geo := *base.Geometry
	clone.Geometry = &geo
	if WarmupKey(clone, fp) != key {
		t.Fatal("independently allocated equal Geometry split the key")
	}
	// A zero field and its applied default must coalesce (base holds the
	// default scheme, DLOOP).
	defaulted := base
	defaulted.FTL = ""
	if WarmupKey(defaulted, fp) != key {
		t.Fatal("zero FTL and explicit default split the key")
	}
	defaulted = base
	defaulted.Merge = ssd.MergeDeterministic
	if WarmupKey(defaulted, fp) != key {
		t.Fatal("zero Merge and its only mode split the key")
	}

	if WarmupKey(base, fp+1) == key {
		t.Fatal("footprint change did not split the key")
	}

	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		mut := base
		fv := reflect.ValueOf(&mut).Elem().Field(i)
		switch fv.Kind() {
		case reflect.Int:
			fv.SetInt(fv.Int() + 7)
		case reflect.Float64:
			fv.SetFloat(fv.Float() + 0.017)
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		case reflect.String:
			fv.SetString(fv.String() + "x")
		case reflect.Pointer:
			if fv.IsNil() {
				fv.Set(reflect.New(f.Type.Elem()))
			} else {
				// Mutate the first integer field of the pointee.
				pe := fv.Elem()
				for j := 0; j < pe.NumField(); j++ {
					if pe.Field(j).Kind() == reflect.Int {
						pe.Field(j).SetInt(pe.Field(j).Int() + 1)
						break
					}
				}
				// Re-point at a private copy so base stays pristine.
				cp := reflect.New(f.Type.Elem())
				cp.Elem().Set(pe)
				fv.Set(cp)
			}
		default:
			t.Fatalf("field %s has kind %v the mutation table does not cover", f.Name, fv.Kind())
		}
		if WarmupKey(mut, fp) == key {
			t.Errorf("mutating Config.%s did not split the warm-up key", f.Name)
		}
	}
}

// cachedSweepJobs is seedSweepJobs plus a DFTL group and a multi-queue DLOOP
// group, so the cached path is exercised across schemes and the sharded
// front-end layout in one sweep.
func cachedSweepJobs(t testing.TB, opt Options) []job {
	jobs := seedSweepJobs(t, opt, 3)
	p := scaleProfile(workload.Financial1(), opt.Scale)
	for _, scheme := range []string{ssd.SchemeDFTL, ssd.SchemeFAST} {
		cfg, ok := configFor(4, 2, 0.03, scheme, opt)
		if !ok {
			t.Fatal("configFor failed")
		}
		for i := 0; i < 2; i++ {
			jobs = append(jobs, job{
				key: fmt.Sprintf("%s-seed%d", scheme, i), cfg: cfg, profile: p, seed: int64(70 + i),
			})
		}
	}
	mq, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	mq.FTLShards = 2
	for i := 0; i < 2; i++ {
		jobs = append(jobs, job{
			key: fmt.Sprintf("mq-seed%d", i), cfg: mq, profile: p, seed: int64(80 + i),
		})
	}
	return jobs
}

// TestCachedSweepMatchesNoFork is the persistent-cache determinism gate: a
// sweep that misses the cache (and populates it), a sweep that serves every
// warm-up from disk, and a fresh-per-cell NoFork sweep must all produce the
// same result map, across schemes and the multi-queue layout.
func TestCachedSweepMatchesNoFork(t *testing.T) {
	opt := quickOptions()
	opt.Requests = 400
	opt.WarmupCache = t.TempDir()
	opt.Stats = &SweepStats{}
	jobs := cachedSweepJobs(t, opt)

	cold, err := runAll(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.CacheHits() != 0 {
		t.Fatalf("cold sweep hit the cache %d times", opt.Stats.CacheHits())
	}
	if opt.Stats.Warmups() == 0 {
		t.Fatal("cold sweep simulated no warm-ups")
	}

	opt.Stats = &SweepStats{}
	warm, err := runAll(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.Warmups() != 0 {
		t.Fatalf("warm sweep still simulated %d warm-ups", opt.Stats.Warmups())
	}
	if hits := opt.Stats.CacheHits(); hits == 0 {
		t.Fatal("warm sweep never hit the cache")
	}

	optFresh := opt
	optFresh.NoFork = true
	optFresh.Stats = &SweepStats{}
	fresh, err := runAll(jobs, optFresh)
	if err != nil {
		t.Fatal(err)
	}
	if optFresh.Stats.CacheHits() != 0 || optFresh.Stats.CacheMisses() != 0 {
		t.Fatal("NoFork sweep touched the warm-up cache")
	}

	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cache-served sweep diverged from cache-populating sweep:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if !reflect.DeepEqual(cold, fresh) {
		t.Fatalf("cached sweep diverged from NoFork sweep:\ncached: %+v\nfresh: %+v", cold, fresh)
	}
}

// TestWarmupCacheRobustness damages every cached file in turn — truncation,
// a flipped payload bit, a bumped format version, and junk content — and
// asserts the sweep silently falls back to fresh warm-up, produces identical
// results, and repopulates the cache.
func TestWarmupCacheRobustness(t *testing.T) {
	opt := quickOptions()
	opt.Requests = 300
	opt.WarmupCache = t.TempDir()
	jobs := seedSweepJobs(t, opt, 3)

	want, err := runAll(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(opt.WarmupCache, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache files written: %v %v", files, err)
	}
	pristine, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip":   func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"version":   func(b []byte) []byte { b[4]++; return b },
		"junk":      func([]byte) []byte { return []byte("not a checkpoint") },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			data := corrupt(append([]byte(nil), pristine...))
			if err := os.WriteFile(files[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			opt := opt
			opt.Stats = &SweepStats{}
			got, err := runAll(jobs, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sweep over damaged cache diverged:\n got %+v\nwant %+v", got, want)
			}
			if opt.Stats.CacheRejects()+opt.Stats.CacheMisses() == 0 {
				t.Fatal("damaged cache entry was not rejected")
			}
			if opt.Stats.Warmups() == 0 {
				t.Fatal("fallback did not simulate a fresh warm-up")
			}
			repaired, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if string(repaired) != string(pristine) {
				t.Fatal("fallback did not repopulate the damaged entry")
			}
		})
	}
}

// TestLoadAndSave covers the single-run command path: Save from a warmed
// controller, Load into a freshly built one, identical subsequent behavior;
// a different footprint misses. Its corrupt-entry case re-seals a damaged
// payload with a valid checksum, so the header checks pass and the restore
// fails mid-decode: Load must count one reject and hand out no controller,
// and RunCachedObserved must fall back to a run bit-identical to one with
// no cache at all.
func TestLoadAndSave(t *testing.T) {
	opt := quickOptions()
	opt.Requests = 300
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	p := scaleProfile(workload.Financial1(), opt.Scale)
	wc := &WarmupCache{Dir: t.TempDir(), Stats: &SweepStats{}}

	warm, err := buildWarm(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if err := wc.Save(warm, cfg, p.FootprintBytes); err != nil {
		t.Fatal(err)
	}
	want, err := resumeObserved(warm, cfg, p, opt.Requests, opt.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}

	c, err := wc.Load(cfg, p.FootprintBytes)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil {
		t.Fatal("Load missed a just-saved checkpoint")
	}
	defer c.Close()
	key := WarmupKey(cfg, p.FootprintBytes)
	path := wc.path(key)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A fork group's lead keeps its own copy of the file for the forks.
	lead, cp, err := wc.load(cfg, key, true)
	if err != nil || lead == nil {
		t.Fatalf("load missed a just-saved checkpoint (err %v)", err)
	}
	lead.Close()
	if !bytes.Equal(cp, pristine) {
		t.Fatal("load kept a checkpoint that differs from the file")
	}
	got, err := resumeObserved(c, cfg, p, opt.Requests, opt.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run from Load diverged:\n got %+v\nwant %+v", got, want)
	}
	// A different footprint must miss.
	if c2, err := wc.Load(cfg, p.FootprintBytes+1); err != nil || c2 != nil {
		t.Fatalf("Load hit on a different footprint (err %v)", err)
	}

	t.Run("resealed-corrupt", func(t *testing.T) {
		// The device's page states open the payload after the scheme name,
		// the config digest, the geometry, the front-end flag, and the slab
		// count; give the last page an unknown state.
		const header = 24 // ckpt container header
		pages := int(warm.Geometry().TotalPages())
		at := header + 4 + len(cfg.FTL) + 32 + 8*8 + 1 + 4 + pages - 1
		bad := append([]byte(nil), pristine...)
		bad[at] = 0xFF
		binary.LittleEndian.PutUint32(bad[16:20],
			crc32.Checksum(bad[header:], crc32.MakeTable(crc32.Castagnoli)))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		wc := &WarmupCache{Dir: wc.Dir, Stats: &SweepStats{}}
		got, err := RunCachedObserved(cfg, p, opt.Requests, opt.Seed, wc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := wc.Stats.CacheRejects(); n != 1 {
			t.Fatalf("%d rejects, want 1", n)
		}
		fresh, err := RunObserved(cfg, p, opt.Requests, opt.Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("run over a corrupt entry diverged from an uncached run:\n got %+v\nwant %+v", got, fresh)
		}
		if repaired, err := os.ReadFile(path); err != nil || !bytes.Equal(repaired, pristine) {
			t.Fatalf("fallback did not republish the warm-up (err %v)", err)
		}
	})
}

// BenchmarkSweepWarmupCached is benchSweep's third mode: the 4-cell
// seed-replication sweep with every warm-up served from a pre-populated
// on-disk cache. Decode + restore replaces the warm-up simulation entirely,
// so this must beat BenchmarkSweepWarmupShared (which still simulates the
// warm-up once per sweep).
func BenchmarkSweepWarmupCached(b *testing.B) {
	opt := Options{Requests: 400, Scale: 0.02, Seed: 7, Workers: 1}
	opt.WarmupCache = b.TempDir()
	jobs := seedSweepJobs(b, opt, 4)
	if _, err := runAll(jobs, opt); err != nil { // populate the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runAll(jobs, opt); err != nil {
			b.Fatal(err)
		}
	}
}
