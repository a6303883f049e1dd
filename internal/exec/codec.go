package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"torusx/internal/topology"
)

// Versioned binary codec for compiled programs — the serialization
// layer under the disk-backed program-cache tier. A program file is
// split along the executor's own hot/cold boundary:
//
//   - The hot sections hold exactly what a replay touches — the
//     lowered step and transfer tables, the per-node delivery counts,
//     the traffic ids and the descriptor replay plan — as flat
//     little-endian arrays laid out field-for-field like the in-memory
//     form, so decoding on a little-endian host is a handful of
//     bounds-checked slice views over the file buffer (zero copies;
//     big-endian hosts take an element-wise fallback). A decoded
//     program replays, serially or in parallel, without ever
//     rebuilding the schedule it was compiled from.
//   - The cold section holds what only telemetry, re-encoding and
//     Program.Schedule need — phase names, declared block counts,
//     route legs and the payload ids — and is not parsed at decode
//     time at all: Schedule() materializes it on first use (see
//     materialize.go), which also rebuilds the link table by
//     re-walking the routes on the fabric.
//
// The header carries the fabric fingerprint and the compile-options
// fingerprint (progcache.Fingerprint: SkipChecks + the traffic
// matrix), and the file ends in a CRC32 of everything before it.
// DecodeProgram rejects short, truncated, corrupted, version- or
// fingerprint-mismatched input with descriptive errors and validates
// every index a replay would follow, so a file that decodes cannot
// make the executor read out of bounds.
//
// Format v4, all integers little-endian, sections 4-byte aligned:
//
//	magic "TXPG" | u16 version | u8 flags | u8 reserved | u64 optFP
//	u32 len + fabric fingerprint string, padded to 4
//	u32 x7: n, numSteps, numTransfers, numPhases, maxSharing,
//	        numDomains, numTraffic
//	u64 x4: measure steps, blocks, hops, rearranged
//	u32 coldLen
//	steps     numSteps x 5 u32 (phaseIndex stepIndex sharing maxBlocks maxHops)
//	stepT     (numSteps+1) x u32 (per-step transfer offsets)
//	transfers numTransfers x 6 i32 (src dst payOff payLen linkOff linkLen)
//	parallelErr u32 len + bytes, padded   | only when flagParallelErr
//	replay section                         | only when flagReplay:
//	  perDest    n x i32
//	  traffic    numTraffic x i32          | only when not flagFullTraffic
//	  u32 x3: numDesc, numTailResid, logSize
//	  dtransfers numTransfers x 4 i32 (descOff descLen insPos finalPos)
//	  descBase   (n+1) x i32 (per-node log-region prefix)
//	  descs      numDesc x 4 i32 (start count blocklen stride)
//	  tailResidOff (n+1) x i32
//	  tailResid    numTailResid x 3 i32 (dstPos descOff descLen)
//	cold section (coldLen bytes):
//	  u32 numPayload + payload ids (numPayload x i32)
//	  blocks    numTransfers x u32 (declared Blocks per transfer)
//	  shared    ceil(numSteps/8) bytes bitmap, padded to 4
//	  phases    numPhases x (u32 len + name padded, u32 steps, u32 rearrange)
//	  segs      per transfer: u8 count + count x (u8 dim, u8 dir, u16 hops),
//	            stream padded to 4
//	u32 CRC32 (IEEE) over all preceding bytes
//
// This build reads and writes v4 only. A file of any other version
// (e.g. a warm disk cache written by an older build) is a decode error,
// which the disk tier turns into a miss and a delete. Derived state
// (per-step transfer bases and element counts, the delivery layout
// prefix and reciprocal, the bytes-moved measure, the last-hop-only
// verdict) is recomputed at decode and never serialized.

// CodecVersion is the program file format version this build reads and
// writes.
const CodecVersion = 4

const codecMagic = "TXPG"

const (
	flagReplay      = 1 << 0
	flagFullTraffic = 1 << 1
	flagParallelErr = 1 << 2
	flagKnown       = flagReplay | flagFullTraffic | flagParallelErr
)

// maxDecodeBlocks bounds the dense block-id space (n*n) a decoder will
// reconstruct, so a corrupt or hostile header cannot demand an
// absurd allocation before any real content is validated. 2^26 ids
// (a 8192-node fabric) is far beyond any shape this repository runs.
const maxDecodeBlocks = 1 << 26

var (
	errTruncated = errors.New("exec: program file truncated")
)

// hostLittle reports the host byte order; the zero-copy decode views
// require little-endian (the file format's order).
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ptLayoutMatches reports that the in-memory ptransfer layout equals
// the file's 24-byte transfer record, making bulk unsafe views exact.
// It holds on every supported Go platform (six consecutive int32s);
// if a future field breaks it, both codec paths fall back to the
// element-wise loops and the format stays unchanged.
var ptLayoutMatches = unsafe.Sizeof(ptransfer{}) == 24 &&
	unsafe.Offsetof(ptransfer{}.src) == 0 &&
	unsafe.Offsetof(ptransfer{}.dst) == 4 &&
	unsafe.Offsetof(ptransfer{}.payOff) == 8 &&
	unsafe.Offsetof(ptransfer{}.payLen) == 12 &&
	unsafe.Offsetof(ptransfer{}.linkOff) == 16 &&
	unsafe.Offsetof(ptransfer{}.linkLen) == 20

var dtLayoutMatches = unsafe.Sizeof(dtransfer{}) == 16 &&
	unsafe.Offsetof(dtransfer{}.descOff) == 0 &&
	unsafe.Offsetof(dtransfer{}.descLen) == 4 &&
	unsafe.Offsetof(dtransfer{}.insPos) == 8 &&
	unsafe.Offsetof(dtransfer{}.finalPos) == 12

var xdescLayoutMatches = unsafe.Sizeof(xdesc{}) == 16 &&
	unsafe.Offsetof(xdesc{}.start) == 0 &&
	unsafe.Offsetof(xdesc{}.count) == 4 &&
	unsafe.Offsetof(xdesc{}.blocklen) == 8 &&
	unsafe.Offsetof(xdesc{}.stride) == 12

var tailSegLayoutMatches = unsafe.Sizeof(tailSeg{}) == 12 &&
	unsafe.Offsetof(tailSeg{}.dstPos) == 0 &&
	unsafe.Offsetof(tailSeg{}.descOff) == 4 &&
	unsafe.Offsetof(tailSeg{}.descLen) == 8

func aligned4(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))&3 == 0
}

// asInt32s views b (length a multiple of 4) as little-endian int32s —
// zero-copy on aligned little-endian hosts, copied otherwise.
func asInt32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittle && aligned4(b) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// ---- Encoding.

// appendI32s appends vals little-endian — one bulk copy on
// little-endian hosts.
func appendI32s(b []byte, vals []int32) []byte {
	if len(vals) == 0 {
		return b
	}
	if hostLittle {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*4)...)
	}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func pad4(b []byte) []byte {
	for len(b)&3 != 0 {
		b = append(b, 0)
	}
	return b
}

// EncodeProgram serializes p to the versioned binary program format.
// optFP is the compile-options fingerprint the program was compiled
// under (progcache.Fingerprint); it is embedded in the header and
// re-checked by DecodeProgram, so a cached file can never be replayed
// against options it was not compiled for. Encoding a decoded program
// first materializes its schedule (the cold section is rebuilt from
// it), so encode→decode→encode is byte-identical.
func EncodeProgram(p *Program, optFP uint64) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("exec: encode nil program")
	}
	sc := p.Schedule()
	if sc == nil {
		if p.schedErr != nil {
			return nil, fmt.Errorf("exec: encode: %w", p.schedErr)
		}
		return nil, fmt.Errorf("exec: encode: program has no schedule")
	}
	if p.fab == nil {
		return nil, fmt.Errorf("exec: encode: program has no fabric")
	}
	n := p.n
	numSteps := len(p.steps)
	numTransfers := 0
	for si := range p.steps {
		numTransfers += len(p.steps[si].transfers)
	}
	var flags byte
	if p.replay {
		flags |= flagReplay
	}
	if p.fullTraffic {
		flags |= flagFullTraffic
	}
	if p.parallelErr != nil {
		flags |= flagParallelErr
	}
	numTraffic := 0
	if p.replay && !p.fullTraffic {
		numTraffic = len(p.trafficIDs)
	}

	// Cold section first, so its length is at hand for the header.
	cold := appendU32(nil, uint32(len(p.payloadBacking)))
	cold = appendI32s(cold, p.payloadBacking)
	shared := make([]byte, (numSteps+7)/8)
	for si := range p.steps {
		ps := &p.steps[si]
		for ti := range ps.transfers {
			tr := &ps.step.Transfers[ti]
			if tr.Blocks < 0 || int64(tr.Blocks) > math.MaxUint32 {
				return nil, fmt.Errorf("exec: encode: transfer block count %d out of range", tr.Blocks)
			}
			cold = appendU32(cold, uint32(tr.Blocks))
		}
		if ps.step.Shared {
			shared[si>>3] |= 1 << uint(si&7)
		}
	}
	cold = append(cold, shared...)
	cold = pad4(cold)
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		if ph.Rearrange < 0 || int64(ph.Rearrange) > math.MaxUint32 {
			return nil, fmt.Errorf("exec: encode: phase %q rearrange %d out of range", ph.Name, ph.Rearrange)
		}
		cold = appendU32(cold, uint32(len(ph.Name)))
		cold = append(cold, ph.Name...)
		cold = pad4(cold)
		cold = appendU32(cold, uint32(len(ph.Steps)))
		cold = appendU32(cold, uint32(ph.Rearrange))
	}
	for si := range p.steps {
		for ti := range p.steps[si].transfers {
			tr := &p.steps[si].step.Transfers[ti]
			segs := tr.Segments()
			if len(segs) > math.MaxUint8 {
				return nil, fmt.Errorf("exec: encode: transfer %v has %d route legs (max %d)", tr, len(segs), math.MaxUint8)
			}
			cold = append(cold, byte(len(segs)))
			for _, sg := range segs {
				if sg.Dim < 0 || sg.Dim > math.MaxUint8 || sg.Hops < 0 || sg.Hops > math.MaxUint16 {
					return nil, fmt.Errorf("exec: encode: route leg %+v exceeds codec limits", sg)
				}
				dir := byte(0)
				if sg.Dir == topology.Neg {
					dir = 1
				}
				cold = append(cold, byte(sg.Dim), dir)
				cold = binary.LittleEndian.AppendUint16(cold, uint16(sg.Hops))
			}
		}
	}
	cold = pad4(cold)

	fp := p.fab.Fingerprint()
	b := make([]byte, 0, 256+len(cold)+numSteps*24+numTransfers*40+len(p.descBacking)*16+5*n*4)
	b = append(b, codecMagic...)
	b = binary.LittleEndian.AppendUint16(b, CodecVersion)
	b = append(b, flags, 0)
	b = appendU64(b, optFP)
	b = appendU32(b, uint32(len(fp)))
	b = append(b, fp...)
	b = pad4(b)
	for _, v := range []int{n, numSteps, numTransfers,
		len(sc.Phases), p.maxSharing, p.numDomains, numTraffic} {
		if v < 0 || int64(v) > math.MaxUint32 {
			return nil, fmt.Errorf("exec: encode: scalar %d out of range", v)
		}
		b = appendU32(b, uint32(v))
	}
	b = appendU64(b, uint64(p.measure.Steps))
	b = appendU64(b, uint64(p.measure.Blocks))
	b = appendU64(b, uint64(p.measure.Hops))
	b = appendU64(b, uint64(p.measure.RearrangedBlocks))
	b = appendU32(b, uint32(len(cold)))

	for si := range p.steps {
		ps := &p.steps[si]
		b = appendU32(b, uint32(ps.phaseIndex))
		b = appendU32(b, uint32(ps.stepIndex))
		b = appendU32(b, uint32(ps.sharing))
		b = appendU32(b, uint32(ps.maxBlocks))
		b = appendU32(b, uint32(ps.maxHops))
	}
	off := 0
	for si := range p.steps {
		b = appendU32(b, uint32(off))
		off += len(p.steps[si].transfers)
	}
	b = appendU32(b, uint32(off))
	if hostLittle && ptLayoutMatches {
		for si := range p.steps {
			ts := p.steps[si].transfers
			if len(ts) > 0 {
				b = append(b, unsafe.Slice((*byte)(unsafe.Pointer(&ts[0])), len(ts)*24)...)
			}
		}
	} else {
		for si := range p.steps {
			for ti := range p.steps[si].transfers {
				pt := &p.steps[si].transfers[ti]
				for _, v := range [6]int32{pt.src, pt.dst, pt.payOff, pt.payLen, pt.linkOff, pt.linkLen} {
					b = appendU32(b, uint32(v))
				}
			}
		}
	}
	if p.parallelErr != nil {
		msg := p.parallelErr.Error()
		b = appendU32(b, uint32(len(msg)))
		b = append(b, msg...)
		b = pad4(b)
	}
	if p.replay {
		b = appendI32s(b, p.perDest)
		if !p.fullTraffic {
			b = appendI32s(b, p.trafficIDs)
		}
		b = appendU32(b, uint32(len(p.descBacking)))
		b = appendU32(b, uint32(len(p.tailResid)))
		b = appendU32(b, uint32(p.descBase[n]))
		if hostLittle && dtLayoutMatches && len(p.dtransfers) > 0 {
			b = append(b, unsafe.Slice((*byte)(unsafe.Pointer(&p.dtransfers[0])), len(p.dtransfers)*16)...)
		} else {
			for i := range p.dtransfers {
				dt := &p.dtransfers[i]
				for _, v := range [4]int32{dt.descOff, dt.descLen, dt.insPos, dt.finalPos} {
					b = appendU32(b, uint32(v))
				}
			}
		}
		b = appendI32s(b, p.descBase)
		if hostLittle && xdescLayoutMatches && len(p.descBacking) > 0 {
			b = append(b, unsafe.Slice((*byte)(unsafe.Pointer(&p.descBacking[0])), len(p.descBacking)*16)...)
		} else {
			for i := range p.descBacking {
				d := &p.descBacking[i]
				for _, v := range [4]int32{d.start, d.count, d.blocklen, d.stride} {
					b = appendU32(b, uint32(v))
				}
			}
		}
		b = appendI32s(b, p.tailResidOff)
		b = appendTailSegs(b, p.tailResid)
	}
	b = append(b, cold...)
	b = appendU32(b, crc32.ChecksumIEEE(b))
	return b, nil
}

func appendTailSegs(b []byte, segs []tailSeg) []byte {
	if hostLittle && tailSegLayoutMatches && len(segs) > 0 {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(&segs[0])), len(segs)*12)...)
	}
	for i := range segs {
		sg := &segs[i]
		for _, v := range [3]int32{sg.dstPos, sg.descOff, sg.descLen} {
			b = appendU32(b, uint32(v))
		}
	}
	return b
}

// ---- Decoding.

// creader is a bounds-checked cursor over the file buffer: every read
// that would pass the end sets err and returns zeros, so a truncated
// or corrupt file produces one descriptive error and no panics.
type creader struct {
	b   []byte
	off int
	err error
}

func (r *creader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

func (r *creader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *creader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *creader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *creader) pad4() {
	if pad := -r.off & 3; pad != 0 {
		r.take(pad)
	}
}

// count reads a u32 element count and verifies the section it sizes
// (count*elem bytes) fits in the remaining buffer before the caller
// allocates anything proportional to it.
func (r *creader) count(elem int) int {
	c := int(r.u32())
	if r.err == nil && (c < 0 || elem > 0 && c > (len(r.b)-r.off)/elem) {
		r.fail()
	}
	if r.err != nil {
		return 0
	}
	return c
}

// DecodeProgram reconstructs a compiled program from data (a buffer
// produced by EncodeProgram). f must be the fabric the program was
// compiled on and optFP the compile-options fingerprint used at
// encode time; both are checked against the embedded header so a
// stale or misfiled cache artifact is rejected, not replayed. The
// decoded program replays immediately; its schedule (needed only for
// telemetry and re-encoding) materializes lazily on first Schedule()
// call.
//
// On little-endian hosts the transfer, id and plan tables are views
// over data — decode cost is the header walk, the CRC check and the
// per-transfer index validation. The caller must not mutate data
// afterwards.
func DecodeProgram(data []byte, f topology.Fabric, optFP uint64) (*Program, error) {
	if f == nil {
		return nil, fmt.Errorf("exec: decode: nil fabric")
	}
	if len(data) < 24 || string(data[:4]) != codecMagic {
		return nil, fmt.Errorf("exec: decode: not a program file (bad magic)")
	}
	if version := binary.LittleEndian.Uint16(data[4:]); version != CodecVersion {
		return nil, fmt.Errorf("exec: decode: program file version %d, this build reads %d", version, CodecVersion)
	}
	body, crcField := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != crcField {
		return nil, fmt.Errorf("exec: decode: checksum mismatch (file %08x, computed %08x): file corrupted or truncated", crcField, got)
	}
	flags := data[6]
	if flags&^flagKnown != 0 {
		return nil, fmt.Errorf("exec: decode: unknown flags %#x", flags&^flagKnown)
	}
	r := &creader{b: body, off: 8}
	if gotFP := r.u64(); gotFP != optFP {
		return nil, fmt.Errorf("exec: decode: options fingerprint %#x, want %#x: file was compiled under different options", gotFP, optFP)
	}
	fabFP := string(r.take(r.count(1)))
	r.pad4()
	if r.err == nil && fabFP != f.Fingerprint() {
		return nil, fmt.Errorf("exec: decode: program compiled for fabric %q, decoding on %q", fabFP, f.Fingerprint())
	}

	n := int(r.u32())
	numSteps := int(r.u32())
	numTransfers := int(r.u32())
	numPhases := int(r.u32())
	maxSharing := int(r.u32())
	numDomains := int(r.u32())
	numTraffic := int(r.u32())
	mSteps, mBlocks := r.u64(), r.u64()
	mHops, mRearr := r.u64(), r.u64()
	coldLen := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n <= 0 || int64(n)*int64(n) > maxDecodeBlocks {
		return nil, fmt.Errorf("exec: decode: implausible node count %d", n)
	}
	replay := flags&flagReplay != 0
	fullTraffic := flags&flagFullTraffic != 0
	if fullTraffic && !replay || numTraffic != 0 && (!replay || fullTraffic) {
		return nil, fmt.Errorf("exec: decode: inconsistent traffic flags")
	}

	p := &Program{
		fab: f, n: n, numBlocks: n * n,
		replay:      replay,
		fullTraffic: fullTraffic,
		maxSharing:  maxSharing,
		numDomains:  numDomains,
	}
	p.measure.Steps = int(mSteps)
	p.measure.Blocks = int(mBlocks)
	p.measure.Hops = int(mHops)
	p.measure.RearrangedBlocks = int(mRearr)

	stepHdr := asInt32s(r.take(numSteps * 20))
	stepT := asInt32s(r.take((numSteps + 1) * 4))
	tBytes := r.take(numTransfers * 24)
	if flags&flagParallelErr != 0 {
		msg := r.take(r.count(1))
		r.pad4()
		if r.err == nil {
			p.parallelErr = errors.New(string(msg))
		}
	}
	var (
		perDest, trafficIDs, descBase, tailResidOff []int32
		numDesc, numTailResid, logSize              int
		dtBytes, descRaw, tailResidRaw              []byte
	)
	if replay {
		perDest = asInt32s(r.take(n * 4))
		if !fullTraffic {
			trafficIDs = asInt32s(r.take(numTraffic * 4))
		}
		numDesc = int(r.u32())
		numTailResid = int(r.u32())
		logSize = int(r.u32())
		dtBytes = r.take(numTransfers * 16)
		descBase = asInt32s(r.take((n + 1) * 4))
		descRaw = r.take(numDesc * 16)
		tailResidOff = asInt32s(r.take((n + 1) * 4))
		tailResidRaw = r.take(numTailResid * 12)
	}
	cold := r.take(coldLen)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("exec: decode: %d trailing bytes after cold section", len(body)-r.off)
	}

	// Transfer table: a bulk view when the in-memory layout is the file
	// layout, element-wise otherwise.
	var transfers []ptransfer
	if hostLittle && ptLayoutMatches && aligned4(tBytes) {
		if numTransfers > 0 {
			transfers = unsafe.Slice((*ptransfer)(unsafe.Pointer(&tBytes[0])), numTransfers)
		}
	} else {
		transfers = make([]ptransfer, numTransfers)
		for i := range transfers {
			rec := tBytes[i*24:]
			pt := &transfers[i]
			pt.src = int32(binary.LittleEndian.Uint32(rec[0:]))
			pt.dst = int32(binary.LittleEndian.Uint32(rec[4:]))
			pt.payOff = int32(binary.LittleEndian.Uint32(rec[8:]))
			pt.payLen = int32(binary.LittleEndian.Uint32(rec[12:]))
			pt.linkOff = int32(binary.LittleEndian.Uint32(rec[16:]))
			pt.linkLen = int32(binary.LittleEndian.Uint32(rec[20:]))
		}
	}

	// Step table: partition the transfer backing by the recorded
	// offsets and validate every field the replay will index with.
	p.steps = make([]pstep, numSteps)
	for si := 0; si < numSteps; si++ {
		h := stepHdr[si*5:]
		lo, hi := stepT[si], stepT[si+1]
		if lo < 0 || hi < lo || int(hi) > numTransfers {
			return nil, fmt.Errorf("exec: decode: step %d transfer window [%d,%d) invalid", si, lo, hi)
		}
		if h[0] < 0 || int(h[0]) >= numPhases || h[1] < 0 || h[2] < 1 || h[3] < 0 || h[4] < 0 {
			return nil, fmt.Errorf("exec: decode: step %d header invalid", si)
		}
		p.steps[si] = pstep{
			phaseIndex: int(h[0]), stepIndex: int(h[1]),
			sharing: int(h[2]), maxBlocks: int(h[3]), maxHops: int(h[4]),
			transfers: transfers[lo:hi:hi],
			tBase:     lo,
		}
	}
	if numSteps > 0 && (stepT[0] != 0 || int(stepT[numSteps]) != numTransfers) || numSteps == 0 && numTransfers != 0 {
		return nil, fmt.Errorf("exec: decode: transfer table does not cover all transfers")
	}
	numPayload := 0
	for i := range transfers {
		pt := &transfers[i]
		if int(pt.src) >= n || pt.src < 0 || int(pt.dst) >= n || pt.dst < 0 {
			return nil, fmt.Errorf("exec: decode: transfer %d endpoints %d->%d out of range", i, pt.src, pt.dst)
		}
		if pt.payLen < 0 || pt.payOff < 0 || pt.linkLen < 0 || pt.linkOff < 0 {
			return nil, fmt.Errorf("exec: decode: transfer %d negative window", i)
		}
		if pt.payLen > 0 && !replay {
			return nil, fmt.Errorf("exec: decode: transfer %d carries payload in a measure-only program", i)
		}
		// numPayload (for the materialize cross-checks) is the largest
		// payload window end, tracked inline to avoid a second pass.
		if end := int(pt.payOff) + int(pt.payLen); end > numPayload {
			numPayload = end
		}
	}
	if replay {
		// Every node's delivery count must be its share of the traffic
		// matrix: the delivery layout is sized from these counts.
		addressed := make([]int32, n)
		if fullTraffic {
			ids := make([]int32, p.numBlocks)
			for i := range ids {
				ids[i] = int32(i)
			}
			p.trafficIDs = ids
			for v := range addressed {
				addressed[v] = int32(n)
			}
		} else {
			for _, id := range trafficIDs {
				if id < 0 || int(id) >= p.numBlocks {
					return nil, fmt.Errorf("exec: decode: traffic id %d out of range", id)
				}
				addressed[int(id)%n]++
			}
			p.trafficIDs = trafficIDs
		}
		for v := 0; v < n; v++ {
			if perDest[v] != addressed[v] {
				return nil, fmt.Errorf("exec: decode: node %d delivery count %d, traffic addresses %d blocks to it", v, perDest[v], addressed[v])
			}
		}
		p.perDest = perDest
		// Delivery layout prefix and reciprocal — derived, never
		// serialized.
		p.deriveDelivery()
		if err := p.decodeDescPlan(dtBytes, descBase, descRaw, tailResidOff, tailResidRaw,
			numDesc, numTailResid, logSize, numTransfers, numPayload); err != nil {
			return nil, err
		}
	}
	p.cold = cold
	p.coldPhases = numPhases
	p.coldPayload = numPayload
	return p, nil
}

func viewDtransfers(b []byte, n int) []dtransfer {
	if n == 0 {
		return nil
	}
	if hostLittle && dtLayoutMatches && aligned4(b) {
		return unsafe.Slice((*dtransfer)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]dtransfer, n)
	for i := range out {
		rec := b[i*16:]
		out[i] = dtransfer{
			descOff:  int32(binary.LittleEndian.Uint32(rec[0:])),
			descLen:  int32(binary.LittleEndian.Uint32(rec[4:])),
			insPos:   int32(binary.LittleEndian.Uint32(rec[8:])),
			finalPos: int32(binary.LittleEndian.Uint32(rec[12:])),
		}
	}
	return out
}

func viewXdescs(b []byte, n int) []xdesc {
	if n == 0 {
		return nil
	}
	if hostLittle && xdescLayoutMatches && aligned4(b) {
		return unsafe.Slice((*xdesc)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]xdesc, n)
	for i := range out {
		rec := b[i*16:]
		out[i] = xdesc{
			start:    int32(binary.LittleEndian.Uint32(rec[0:])),
			count:    int32(binary.LittleEndian.Uint32(rec[4:])),
			blocklen: int32(binary.LittleEndian.Uint32(rec[8:])),
			stride:   int32(binary.LittleEndian.Uint32(rec[12:])),
		}
	}
	return out
}

func viewTailSegs(b []byte, n int) []tailSeg {
	if n == 0 {
		return nil
	}
	if hostLittle && tailSegLayoutMatches && aligned4(b) {
		return unsafe.Slice((*tailSeg)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]tailSeg, n)
	for i := range out {
		rec := b[i*12:]
		out[i] = tailSeg{
			dstPos:  int32(binary.LittleEndian.Uint32(rec[0:])),
			descOff: int32(binary.LittleEndian.Uint32(rec[4:])),
			descLen: int32(binary.LittleEndian.Uint32(rec[8:])),
		}
	}
	return out
}

// decodeDescPlan validates the descriptor section against the already
// validated replay tables and attaches it. Every index a descriptor
// replay follows — log windows, delivery windows, descriptor windows —
// is range-checked here, and the delivery windows are proven to tile
// the delivery layout, so a decoded plan cannot make gather read or
// write out of bounds, nor leave a delivery slot unwritten, no matter
// how the file was corrupted.
func (p *Program) decodeDescPlan(dtBytes []byte, descBase []int32, descRaw []byte,
	tailResidOff []int32, tailResidRaw []byte, numDesc, numTailResid, logSize, numTransfers, numPayload int) error {
	n := p.n
	if logSize < 0 || logSize > p.numBlocks+numPayload {
		return fmt.Errorf("exec: decode: implausible log size %d", logSize)
	}
	if descBase[0] != 0 || int(descBase[n]) != logSize {
		return fmt.Errorf("exec: decode: log region prefix does not cover the log")
	}
	perOrigin := make([]int32, n)
	for _, id := range p.trafficIDs {
		perOrigin[int(id)/n]++
	}
	for v := 0; v < n; v++ {
		if descBase[v+1] < descBase[v] {
			return fmt.Errorf("exec: decode: log region prefix not monotone at node %d", v)
		}
		if descBase[v+1]-descBase[v] < perOrigin[v] {
			return fmt.Errorf("exec: decode: node %d log region smaller than its initial contents", v)
		}
	}
	descs := viewXdescs(descRaw, numDesc)
	for i := range descs {
		d := &descs[i]
		if d.count < 1 || d.blocklen < 1 || d.count > 1 && d.stride == 0 {
			return fmt.Errorf("exec: decode: descriptor %d malformed", i)
		}
		first := int64(d.start)
		last := first + int64(d.count-1)*int64(d.stride)
		if first < 0 || last < 0 ||
			first+int64(d.blocklen) > int64(logSize) || last+int64(d.blocklen) > int64(logSize) {
			return fmt.Errorf("exec: decode: descriptor %d reads outside the log", i)
		}
	}
	dts := viewDtransfers(dtBytes, numTransfers)
	lastHopOnly := true
	var descBytes int64
	g := 0
	for si := range p.steps {
		ps := &p.steps[si]
		ts := ps.transfers
		for ti := range ts {
			pt, dt := &ts[ti], &dts[g]
			g++
			if pt.payLen == 0 {
				// Empty: nothing may execute.
				if dt.descLen != 0 || dt.insPos >= 0 {
					return fmt.Errorf("exec: decode: transfer %d descriptor plan inconsistent", g-1)
				}
				continue
			}
			if dt.descOff < 0 || dt.descLen < 1 || int64(dt.descOff)+int64(dt.descLen) > int64(numDesc) {
				return fmt.Errorf("exec: decode: transfer %d descriptor window out of range", g-1)
			}
			if expandedLen(descs[dt.descOff:dt.descOff+dt.descLen]) != int64(pt.payLen) {
				return fmt.Errorf("exec: decode: transfer %d descriptors expand to the wrong payload size", g-1)
			}
			if dt.insPos < 0 || int64(dt.insPos)+int64(pt.payLen) > int64(logSize) {
				return fmt.Errorf("exec: decode: transfer %d insert window outside the log", g-1)
			}
			descBytes += int64(pt.payLen) * 4
			ps.moved += int(pt.payLen)
			// A last-hop window (finalPos >= 0) is placed by
			// checkDeliveryTiling below.
			if dt.finalPos < 0 {
				if dt.finalPos != -1 {
					return fmt.Errorf("exec: decode: transfer %d delivery position invalid", g-1)
				}
				lastHopOnly = false
			}
		}
	}
	tailResid := viewTailSegs(tailResidRaw, numTailResid)
	if tailResidOff[0] != 0 || int(tailResidOff[n]) != len(tailResid) {
		return fmt.Errorf("exec: decode: tail offsets do not cover the segments")
	}
	for v := 0; v < n; v++ {
		if tailResidOff[v+1] < tailResidOff[v] {
			return fmt.Errorf("exec: decode: tail offsets not monotone at node %d", v)
		}
		for _, sg := range tailResid[tailResidOff[v]:tailResidOff[v+1]] {
			if sg.dstPos < 0 || sg.descOff < 0 || sg.descLen < 1 ||
				int64(sg.descOff)+int64(sg.descLen) > int64(numDesc) {
				return fmt.Errorf("exec: decode: node %d tail segment out of range", v)
			}
		}
	}
	p.dtransfers = dts
	p.descBacking = descs
	p.descBase = descBase
	p.tailResid = tailResid
	p.tailResidOff = tailResidOff
	p.descBytes = descBytes
	p.lastHopOnly = lastHopOnly
	return p.checkDeliveryTiling()
}

// checkDeliveryTiling proves that a replay writes every slot of the
// dense delivery layout exactly once: each last-hop window lies inside
// its destination node's range, each residual segment inside its own
// node's, and together they cover the whole layout with no slot
// written twice. A replay then leaves no slot unwritten and every
// node's count holds by construction, so the run-time delivery pass
// checks addressing only. Residual descriptor windows must already lie
// inside the descriptor table.
func (p *Program) checkDeliveryTiling() error {
	total := int64(p.finalBase[p.n])
	covered := make([]uint64, (total+63)/64)
	var filled int64
	for si := range p.steps {
		ps := &p.steps[si]
		for ti := range ps.transfers {
			pt, dt := &ps.transfers[ti], &p.dtransfers[int(ps.tBase)+ti]
			if pt.payLen == 0 || dt.finalPos < 0 {
				continue
			}
			lo, hi := int64(dt.finalPos), int64(dt.finalPos)+int64(pt.payLen)
			if lo < int64(p.finalBase[pt.dst]) || hi > int64(p.finalBase[pt.dst+1]) {
				return fmt.Errorf("exec: transfer %d delivers to [%d,%d), outside node %d's delivery range", int(ps.tBase)+ti, lo, hi, pt.dst)
			}
			if !markRange(covered, int(lo), int(hi)) {
				return fmt.Errorf("exec: transfer %d delivers to slots of [%d,%d) another delivery already writes", int(ps.tBase)+ti, lo, hi)
			}
			filled += hi - lo
		}
	}
	for v := 0; v < p.n; v++ {
		for _, sg := range p.tailResid[p.tailResidOff[v]:p.tailResidOff[v+1]] {
			lo := int64(p.finalBase[v]) + int64(sg.dstPos)
			e := expandedLen(p.descBacking[sg.descOff : sg.descOff+sg.descLen])
			hi := lo + e
			if e < 0 || hi > int64(p.finalBase[v+1]) {
				return fmt.Errorf("exec: node %d residual segment [%d,%d) runs past its delivery range", v, lo, hi)
			}
			if !markRange(covered, int(lo), int(hi)) {
				return fmt.Errorf("exec: node %d residual segment [%d,%d) overlaps another delivery", v, lo, hi)
			}
			filled += hi - lo
		}
	}
	if filled != total {
		return fmt.Errorf("exec: delivery plan writes %d of %d delivery slots, leaving the rest uncovered", filled, total)
	}
	return nil
}

// expandedLen returns the element count descs expand to, or -1 once it
// passes MaxInt32 (no window a decoder accepts is that long), so a
// corrupt table's sum can never wrap.
func expandedLen(descs []xdesc) int64 {
	var total int64
	for i := range descs {
		total += int64(descs[i].count) * int64(descs[i].blocklen)
		if total > math.MaxInt32 {
			return -1
		}
	}
	return total
}

// markRange sets bits [lo, hi) of bm, reporting false, with bm partly
// updated, if any of them was already set.
func markRange(bm []uint64, lo, hi int) bool {
	for lo < hi {
		end := (lo | 63) + 1
		if end > hi {
			end = hi
		}
		mask := ^uint64(0) >> uint(64-(end-lo)) << uint(lo&63)
		w := &bm[lo>>6]
		if *w&mask != 0 {
			return false
		}
		*w |= mask
		lo = end
	}
	return true
}
