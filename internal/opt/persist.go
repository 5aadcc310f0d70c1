package opt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"mdq/internal/abind"
	"mdq/internal/bounded"
	"mdq/internal/plan"
	"mdq/internal/schema"
)

// FingerprintSource reports a stable fingerprint of a service's
// current per-attribute value distributions (empty when the service
// is unknown or has none); service.Registry implements it. The
// optimizer snapshots fingerprints into template cache entries, and
// importing caches use the source to decide whether a deserialized
// skeleton may be served fresh or must revalidate first.
type FingerprintSource interface {
	DistFingerprint(service string) string
}

// TemplateWireEntry is the serializable form of one template-level
// plan cache entry: everything a remote (or restarted) cache needs to
// serve warm skeletons — the template key, the winning access-pattern
// assignment and topology, the baseline cost the revalidation ratio
// compares against, and the epoch vector plus per-service
// distribution fingerprints that let the importer judge statistical
// agreement. Exact entries are deliberately not serialized: their
// keys embed the exporter's statistics fingerprints, which another
// process (or a later restart) will not reproduce, so they could
// never be hit.
type TemplateWireEntry struct {
	// Key is the full template cache key (template signature + knob
	// fingerprint). Both sides must run compatible optimizer settings
	// for keys to match; a mismatched key is simply never hit.
	Key string `json:"key"`
	// Class is the binding class the skeleton's baseline belongs to —
	// one wire entry per key+class pair. Files written before
	// per-class baselines carry no class and import as class "",
	// which any binding may borrow from (see PlanCache).
	Class string `json:"class,omitempty"`
	// Assignment holds one access pattern per query atom, in the
	// "ioo" notation.
	Assignment []string `json:"assignment"`
	// Topology is the winning partial order over the atoms.
	Topology *plan.Topology `json:"topology"`
	// BaseCost is the plan cost at the exporter's last full search.
	BaseCost float64 `json:"base_cost"`
	// Feasible reports whether that search reached k.
	Feasible bool `json:"feasible"`
	// Stats are the effort counters of the original search.
	Stats Stats `json:"stats"`
	// Epochs is the exporter's statistics-epoch vector.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
	// Dists maps each service to the fingerprint of its value
	// distributions at the exporter (empty string: no statistics).
	Dists map[string]string `json:"dists,omitempty"`
}

// cacheFile is the on-disk envelope of PlanCache.Save/Load.
type cacheFile struct {
	Version   int                 `json:"version"`
	Templates []TemplateWireEntry `json:"templates"`
}

// cacheFileVersion guards the Save/Load format.
const cacheFileVersion = 1

// ExportTemplates snapshots every template entry in wire form, most
// recently used first, one wire entry per binding class (classes
// sorted for stable output). Exact entries are skipped (see
// TemplateWireEntry).
func (c *PlanCache) ExportTemplates() []TemplateWireEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []TemplateWireEntry
	c.lru.Each(func(it *bounded.Item[string, *cacheEntry]) bool {
		e := it.Value
		if e.kind != templateEntry {
			return true
		}
		classes := make([]string, 0, len(e.classes))
		for cls := range e.classes {
			classes = append(classes, cls)
		}
		sort.Strings(classes)
		for _, cls := range classes {
			s := e.classes[cls]
			if s.topo == nil {
				continue
			}
			w := TemplateWireEntry{
				Key:      it.Key,
				Class:    cls,
				Topology: s.topo.Clone(),
				BaseCost: s.baseCost,
				Feasible: s.feasible,
				Stats:    s.stats,
				Epochs:   copyEpochs(e.epochs),
				Dists:    copyDists(e.dists),
			}
			for _, p := range s.asn {
				w.Assignment = append(w.Assignment, p.String())
			}
			out = append(out, w)
		}
		return true
	})
	return out
}

// ImportTemplates installs wire entries as template entries and
// returns how many were accepted (malformed entries are skipped). An
// imported skeleton enters fresh only when src confirms that every
// service's local distribution fingerprint matches the exporter's;
// otherwise — src nil, fingerprints absent, or any mismatch — it
// enters stale, so the existing revalidation machinery re-costs it
// against local statistics before it is ever served
// (Optimizer.OptimizeTemplate reports such serves as Revalidated).
// Entries are taken to be most recently used first, as
// ExportTemplates writes them, and are installed oldest first, so the
// importer's recency order matches the exporter's.
func (c *PlanCache) ImportTemplates(entries []TemplateWireEntry, src FingerprintSource) int {
	if c == nil {
		return 0
	}
	n := 0
	for i := len(entries) - 1; i >= 0; i-- {
		if c.installTemplate(entries[i], !fingerprintsAgree(entries[i].Dists, src)) {
			n++
		}
	}
	return n
}

// installTemplate stores one wire entry as a binding-class slot of its
// template entry and reports whether it was well-formed. A searching
// process installs its own TemplateEntry fresh; imports pass stale
// unless the local statistics agree with the exporter's.
func (c *PlanCache) installTemplate(w TemplateWireEntry, stale bool) bool {
	slot, err := w.toSlot()
	if err != nil {
		return false
	}
	c.upsertClass(w.Key, w.Class, slot, copyEpochs(w.Epochs), copyDists(w.Dists), stale)
	return true
}

// toSlot validates and converts a wire entry into one binding
// class's slot.
func (w TemplateWireEntry) toSlot() (*classSlot, error) {
	if w.Key == "" || w.Topology == nil {
		return nil, fmt.Errorf("opt: wire entry without key or topology")
	}
	if len(w.Assignment) != w.Topology.Size() {
		return nil, fmt.Errorf("opt: wire entry has %d patterns for %d atoms", len(w.Assignment), w.Topology.Size())
	}
	asn := make(abind.Assignment, len(w.Assignment))
	for i, s := range w.Assignment {
		p, err := schema.ParsePattern(s)
		if err != nil {
			return nil, err
		}
		asn[i] = p
	}
	return &classSlot{
		asn:      asn,
		topo:     w.Topology.Clone(),
		baseCost: w.BaseCost,
		feasible: w.Feasible,
		stats:    w.Stats,
	}, nil
}

// fingerprintsAgree reports whether the local statistics match the
// exporter's for every service of the entry. No recorded
// fingerprints, or no source to check against, count as disagreement:
// the safe default is to revalidate.
func fingerprintsAgree(dists map[string]string, src FingerprintSource) bool {
	if len(dists) == 0 || src == nil {
		return false
	}
	for svc, fp := range dists {
		if src.DistFingerprint(svc) != fp {
			return false
		}
	}
	return true
}

// Save serializes the cache's template entries as JSON — the
// persistence half of cache warmup: a server writes it at shutdown
// and Loads it at the next start, so template skeletons survive
// restarts and the first binding of a known template skips the
// branch-and-bound.
func (c *PlanCache) Save(w io.Writer) error {
	entries := c.ExportTemplates()
	if entries == nil {
		entries = []TemplateWireEntry{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(cacheFile{Version: cacheFileVersion, Templates: entries})
}

// Load reads a Save stream and imports its template entries,
// returning how many were accepted. Entries enter stale unless src
// confirms the local value distributions match the saved fingerprints
// (see ImportTemplates); pass the registry as src.
func (c *PlanCache) Load(r io.Reader, src FingerprintSource) (int, error) {
	var f cacheFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return 0, err
	}
	if f.Version != cacheFileVersion {
		return 0, fmt.Errorf("opt: cache file version %d, want %d", f.Version, cacheFileVersion)
	}
	return c.ImportTemplates(f.Templates, src), nil
}

// SaveFile persists the template entries to a file atomically (write
// to a sibling temp file, then rename) — the shutdown half of the
// -cache-file flag on mdqserve and mdqworker.
func (c *PlanCache) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile imports a SaveFile from disk (see Load). A missing file
// is reported via os.IsNotExist on the returned error — first starts
// treat it as an empty cache.
func (c *PlanCache) LoadFile(path string, src FingerprintSource) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return c.Load(f, src)
}

// copyEpochs clones an epoch vector (nil stays nil).
func copyEpochs(m map[string]uint64) map[string]uint64 {
	if m == nil {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// copyDists clones a fingerprint vector (nil stays nil).
func copyDists(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
