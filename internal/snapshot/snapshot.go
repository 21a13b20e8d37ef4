// Package snapshot implements the durable checkpoint format of the search
// engine: a versioned, self-describing binary file holding a paused
// exploration — the passed store, the frontier in its exact order, the
// search tree needed for trace reconstruction, and the effort statistics —
// plus the identity (model sha256, canonical options JSON) that guards
// against resuming the wrong search.
//
// The format is deliberately neutral: the package knows nodes, zones, and
// sections, not engines. internal/mc converts its live search state to and
// from these types. Load and Decode always verify the whole file (footer
// hash, section framing, node indices) before anything is returned.
//
// # File layout
//
//	magic    [8]byte  "GTACKPT\n"
//	version  uint32   little-endian format version (currently 1)
//	sections tag byte + uvarint payload length + payload, repeated:
//	         1 header (JSON: model sha256 + canonical options)
//	         2 nodes (search-tree nodes, parents before use not required)
//	         3 store (node indices, bucket-sorted, insertion-ordered)
//	         4 frontier (node indices + heap priorities, order-preserving)
//	         5 stats (JSON)
//	footer   [32]byte sha256 over everything before it
//
// Integers inside sections are varint-encoded (zigzag for signed values).
// Writes are atomic: temp file in the target directory, fsync, rename.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"guidedta/internal/dbm"
)

// FormatVersion is the current checkpoint format version. Load rejects any
// other version: the format describes engine internals (store antichain
// order, frontier discipline state), so cross-version resume would be a
// correctness hazard, not a convenience.
const FormatVersion = 1

var magic = [8]byte{'G', 'T', 'A', 'C', 'K', 'P', 'T', '\n'}

// Sentinel errors, distinguishable with errors.Is. Load additionally
// wraps each with position detail.
var (
	// ErrBadMagic marks a file that is not a checkpoint at all.
	ErrBadMagic = errors.New("snapshot: not a checkpoint file (bad magic)")
	// ErrVersion marks a checkpoint written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported checkpoint format version")
	// ErrCorrupt marks a truncated or bit-rotted checkpoint (failed
	// footer hash, short sections, out-of-range indices).
	ErrCorrupt = errors.New("snapshot: corrupt or truncated checkpoint")
)

// Section tags.
const (
	secHeader byte = 1 + iota
	secNodes
	secStore
	secFrontier
	secStats
)

// ZoneKind says which zone representation a node carries.
type ZoneKind uint8

const (
	// ZoneNone is a node whose zone was not captured (popped ancestors,
	// subsumption-evicted frontier entries): only the discrete search-tree
	// data survives, which is all trace reconstruction needs.
	ZoneNone ZoneKind = iota
	// ZoneFull is a full canonical DBM (the default full-matrix store).
	ZoneFull
	// ZoneCompact is a minimal-constraint zone (Options.Compact).
	ZoneCompact
)

// Zone is one serialized zone in either representation.
type Zone struct {
	Kind ZoneKind
	Dim  int
	// Bounds is the row-major Dim×Dim matrix (ZoneFull).
	Bounds []dbm.Bound
	// Cons is the minimal-constraint list in canonical order (ZoneCompact).
	Cons []dbm.Constraint
}

// Node is one search-tree node. Parent is an index into Checkpoint.Nodes
// (-1 for the root); Via is the engine transition {Chan, A1, E1, A2, E2}
// that produced the node, kept as raw ints so the package stays neutral.
type Node struct {
	Parent   int32
	Depth    int32
	Via      [5]int32
	Subsumed bool
	// HasState marks nodes whose discrete state and zone were captured:
	// store entries and live frontier entries. Ancestor-only nodes carry
	// nothing but Parent/Via/Depth.
	HasState bool
	Locs     []int32
	Env      []int32
	Zone     Zone
}

// FrontierEntry is one waiting node in exploration order. Prio is the
// best-first heap priority (meaningful only for the BestTime order, where
// it is captured verbatim so the restored heap ties break identically).
type FrontierEntry struct {
	Node int32
	Prio int64
}

// Stats carries the cumulative effort counters of the checkpointed run, so
// a resumed search reports totals indistinguishable from an uninterrupted
// one.
type Stats struct {
	StatesExplored   int64   `json:"states_explored"`
	Transitions      int64   `json:"transitions"`
	Deadends         int64   `json:"deadends"`
	MaxDepth         int64   `json:"max_depth"`
	PeakWaiting      int64   `json:"peak_waiting"`
	Evictions        int64   `json:"evictions"`
	Steals           int64   `json:"steals"`
	PeakMemBytes     int64   `json:"peak_mem_bytes"`
	DurationNS       int64   `json:"duration_ns"`
	CheckpointWrites int64   `json:"checkpoint_writes"`
	CheckpointNS     int64   `json:"checkpoint_ns"`
	ByAutomaton      []int64 `json:"by_automaton,omitempty"`
}

// Checkpoint is one paused exploration.
type Checkpoint struct {
	// ModelSHA is the canonical model digest (tadsl.Hash) recorded by the
	// layer that knows the model's source form; empty means unchecked.
	ModelSHA string
	// Options is the canonical options JSON (mc.Options.CanonicalJSON) the
	// search ran with. Resume requires byte equality.
	Options []byte
	// Final marks a checkpoint written at the natural end of a completed
	// search rather than at an abort point. Nothing writes such files any
	// more (older servers kept them as warm-start seeds), but they may still
	// sit in a checkpoint directory: their frontier reflects a finished
	// search, so an exact resume from one could terminate with the wrong
	// verdict, and the resume path refuses them.
	Final bool
	// Nodes is the retained search tree; Store and Frontier index into it.
	Nodes []Node
	// Store lists the passed-store entries as node indices, buckets in
	// sorted key order and entries in bucket insertion order, so replaying
	// them through the store's seed path reproduces every antichain scan
	// order exactly.
	Store []int32
	// Frontier lists the waiting nodes in exact pop-structure order.
	Frontier []FrontierEntry
	Stats    Stats
}

// header is the JSON payload of the header section.
type header struct {
	ModelSHA string          `json:"model_sha256"`
	Options  json.RawMessage `json:"options"`
	// Final rides in the header JSON as an optional field (see
	// Checkpoint.Final); files from older writers may also carry an
	// advisory "meta" key, which decoding ignores.
	Final bool `json:"final,omitempty"`
}

// Encode serializes the checkpoint to its binary form (magic through
// footer). Write is Encode plus the atomic file dance; Encode is exposed
// for tests and future transports (shard handoff over the network).
func (cp *Checkpoint) Encode() ([]byte, error) {
	buf := make([]byte, 0, 64+len(cp.Nodes)*32)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)

	hdr, err := json.Marshal(header{
		ModelSHA: cp.ModelSHA,
		Options:  json.RawMessage(cp.Options),
		Final:    cp.Final,
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding header: %w", err)
	}
	buf = appendSection(buf, secHeader, hdr)
	buf = appendSection(buf, secNodes, cp.encodeNodes(nil))
	buf = appendSection(buf, secStore, encodeIndexList(nil, cp.Store))
	buf = appendSection(buf, secFrontier, cp.encodeFrontier(nil))
	st, err := json.Marshal(cp.Stats)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding stats: %w", err)
	}
	buf = appendSection(buf, secStats, st)

	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	return buf, nil
}

// Write atomically persists the checkpoint at path: the bytes land in a
// temp file in the same directory, are fsynced, and are renamed over the
// target, so a crash mid-write leaves either the previous checkpoint or
// none — never a torn file.
func Write(path string, cp *Checkpoint) error {
	data, err := cp.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: renaming into place: %w", err)
	}
	return nil
}

// Load reads and verifies a checkpoint. Errors distinguish a missing file
// (os.IsNotExist / fs.ErrNotExist), a non-checkpoint file (ErrBadMagic),
// an incompatible version (ErrVersion), and corruption (ErrCorrupt).
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode parses the binary form produced by Encode.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < len(magic)+4+sha256.Size {
		if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
			return nil, fmt.Errorf("%w (%d bytes)", ErrBadMagic, len(data))
		}
		return nil, fmt.Errorf("%w: file shorter than header+footer (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return nil, ErrBadMagic
	}
	body, footer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(footer) {
		return nil, fmt.Errorf("%w: footer sha256 mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(body[len(magic):]); v != FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, FormatVersion)
	}

	cp := &Checkpoint{}
	rest := body[len(magic)+4:]
	seen := map[byte]bool{}
	for len(rest) > 0 {
		tag := rest[0]
		rest = rest[1:]
		n, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < n {
			return nil, fmt.Errorf("%w: section %d length overruns file", ErrCorrupt, tag)
		}
		payload := rest[k : k+int(n)]
		rest = rest[k+int(n):]
		if seen[tag] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, tag)
		}
		seen[tag] = true
		var err error
		switch tag {
		case secHeader:
			var h header
			if err = json.Unmarshal(payload, &h); err == nil {
				cp.ModelSHA = h.ModelSHA
				cp.Options = []byte(h.Options)
				cp.Final = h.Final
			}
		case secNodes:
			err = cp.decodeNodes(payload)
		case secStore:
			cp.Store, err = decodeIndexList(payload)
		case secFrontier:
			err = cp.decodeFrontier(payload)
		case secStats:
			err = json.Unmarshal(payload, &cp.Stats)
		default:
			// Unknown sections are tolerated within a version (forward room
			// for optional sections), having already passed the hash check.
		}
		if err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, tag, err)
		}
	}
	for _, tag := range []byte{secHeader, secNodes, secStore, secFrontier, secStats} {
		if !seen[tag] {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, tag)
		}
	}
	// Index validation here, once, so consumers can trust the structure.
	nn := int32(len(cp.Nodes))
	for i, n := range cp.Nodes {
		if n.Parent < -1 || n.Parent >= nn || n.Parent == int32(i) {
			return nil, fmt.Errorf("%w: node %d has parent %d out of range", ErrCorrupt, i, n.Parent)
		}
	}
	for _, ix := range cp.Store {
		if ix < 0 || ix >= nn {
			return nil, fmt.Errorf("%w: store entry index %d out of range", ErrCorrupt, ix)
		}
	}
	for _, fe := range cp.Frontier {
		if fe.Node < 0 || fe.Node >= nn {
			return nil, fmt.Errorf("%w: frontier index %d out of range", ErrCorrupt, fe.Node)
		}
	}
	return cp, nil
}

// --- section encoders/decoders ---

func appendSection(buf []byte, tag byte, payload []byte) []byte {
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// Node flag bits.
const (
	flagSubsumed = 1 << 0
	flagHasState = 1 << 1
	// Zone kind occupies bits 2-3.
	flagZoneShift = 2
)

func (cp *Checkpoint) encodeNodes(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cp.Nodes)))
	for i := range cp.Nodes {
		n := &cp.Nodes[i]
		buf = binary.AppendVarint(buf, int64(n.Parent))
		buf = binary.AppendUvarint(buf, uint64(n.Depth))
		for _, v := range n.Via {
			buf = binary.AppendVarint(buf, int64(v))
		}
		flags := byte(n.Zone.Kind) << flagZoneShift
		if n.Subsumed {
			flags |= flagSubsumed
		}
		if n.HasState {
			flags |= flagHasState
		}
		buf = append(buf, flags)
		if !n.HasState {
			continue
		}
		buf = appendInt32s(buf, n.Locs)
		buf = appendInt32s(buf, n.Env)
		switch n.Zone.Kind {
		case ZoneFull:
			buf = binary.AppendUvarint(buf, uint64(n.Zone.Dim))
			for _, b := range n.Zone.Bounds {
				buf = binary.AppendVarint(buf, int64(b))
			}
		case ZoneCompact:
			buf = binary.AppendUvarint(buf, uint64(n.Zone.Dim))
			buf = binary.AppendUvarint(buf, uint64(len(n.Zone.Cons)))
			for _, cc := range n.Zone.Cons {
				buf = binary.AppendUvarint(buf, uint64(cc.I))
				buf = binary.AppendUvarint(buf, uint64(cc.J))
				buf = binary.AppendVarint(buf, int64(cc.B))
			}
		}
	}
	return buf
}

func (cp *Checkpoint) decodeNodes(payload []byte) error {
	r := reader{buf: payload}
	count := r.uvarint()
	if count > uint64(len(payload)) { // every node costs >= 1 byte
		return fmt.Errorf("implausible node count %d", count)
	}
	nodes := make([]Node, count)
	for i := range nodes {
		n := &nodes[i]
		n.Parent = int32(r.varint())
		n.Depth = int32(r.uvarint())
		for vi := range n.Via {
			n.Via[vi] = int32(r.varint())
		}
		flags := r.byte()
		n.Subsumed = flags&flagSubsumed != 0
		n.HasState = flags&flagHasState != 0
		n.Zone.Kind = ZoneKind(flags >> flagZoneShift)
		if n.Zone.Kind > ZoneCompact {
			return fmt.Errorf("node %d: unknown zone kind %d", i, n.Zone.Kind)
		}
		if !n.HasState {
			continue
		}
		n.Locs = r.int32s()
		n.Env = r.int32s()
		switch n.Zone.Kind {
		case ZoneFull:
			dim := int(r.uvarint())
			if dim < 1 || dim > 1<<14 || r.failed {
				return fmt.Errorf("node %d: bad zone dimension %d", i, dim)
			}
			n.Zone.Dim = dim
			n.Zone.Bounds = make([]dbm.Bound, dim*dim)
			for bi := range n.Zone.Bounds {
				n.Zone.Bounds[bi] = dbm.Bound(r.varint())
			}
		case ZoneCompact:
			dim := int(r.uvarint())
			k := r.uvarint()
			if dim < 1 || dim > 1<<14 || k > uint64(len(payload)) || r.failed {
				return fmt.Errorf("node %d: bad compact zone (dim %d, %d constraints)", i, dim, k)
			}
			n.Zone.Dim = dim
			n.Zone.Cons = make([]dbm.Constraint, k)
			for ci := range n.Zone.Cons {
				n.Zone.Cons[ci] = dbm.Constraint{
					I: uint16(r.uvarint()), J: uint16(r.uvarint()), B: dbm.Bound(r.varint()),
				}
			}
		}
		if r.failed {
			return fmt.Errorf("truncated at node %d", i)
		}
	}
	if r.failed {
		return errors.New("truncated node section")
	}
	cp.Nodes = nodes
	return nil
}

func encodeIndexList(buf []byte, ixs []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ixs)))
	for _, ix := range ixs {
		buf = binary.AppendUvarint(buf, uint64(ix))
	}
	return buf
}

func decodeIndexList(payload []byte) ([]int32, error) {
	r := reader{buf: payload}
	count := r.uvarint()
	if count > uint64(len(payload)) {
		return nil, fmt.Errorf("implausible index count %d", count)
	}
	ixs := make([]int32, count)
	for i := range ixs {
		ixs[i] = int32(r.uvarint())
	}
	if r.failed {
		return nil, errors.New("truncated index list")
	}
	return ixs, nil
}

func (cp *Checkpoint) encodeFrontier(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cp.Frontier)))
	for _, fe := range cp.Frontier {
		buf = binary.AppendUvarint(buf, uint64(fe.Node))
		buf = binary.AppendVarint(buf, fe.Prio)
	}
	return buf
}

func (cp *Checkpoint) decodeFrontier(payload []byte) error {
	r := reader{buf: payload}
	count := r.uvarint()
	if count > uint64(len(payload)) {
		return fmt.Errorf("implausible frontier count %d", count)
	}
	fes := make([]FrontierEntry, count)
	for i := range fes {
		fes[i].Node = int32(r.uvarint())
		fes[i].Prio = r.varint()
	}
	if r.failed {
		return errors.New("truncated frontier section")
	}
	cp.Frontier = fes
	return nil
}

func appendInt32s(buf []byte, vs []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// reader is a failure-latching varint cursor: every read after an overrun
// returns zero and sets failed, so decoders check once per record instead
// of on every field.
type reader struct {
	buf    []byte
	failed bool
}

func (r *reader) byte() byte {
	if len(r.buf) == 0 {
		r.failed = true
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *reader) uvarint() uint64 {
	v, k := binary.Uvarint(r.buf)
	if k <= 0 {
		r.failed = true
		return 0
	}
	r.buf = r.buf[k:]
	return v
}

func (r *reader) varint() int64 {
	v, k := binary.Varint(r.buf)
	if k <= 0 {
		r.failed = true
		return 0
	}
	r.buf = r.buf[k:]
	return v
}

func (r *reader) int32s() []int32 {
	count := r.uvarint()
	if r.failed || count > uint64(len(r.buf))+1 {
		r.failed = true
		return nil
	}
	vs := make([]int32, count)
	for i := range vs {
		vs[i] = int32(r.varint())
	}
	return vs
}
