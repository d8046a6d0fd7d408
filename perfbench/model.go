package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// payloadSize is every leaf page's data size.
const payloadSize = 1024

// model is the benchmark's own account of what every leaf page of every
// file holds, kept from the operations it issued and never from what the
// program returned. In stamp mode a page holds the bytes fill derives
// from the stamp of the last committed update that wrote it; in counter
// mode it holds a little-endian counter followed by filler fixed per
// page. Each load goroutine touches only its own files, so the model
// needs no lock.
type model struct {
	seed     int64
	pages    int
	stamps   []uint64 // stamp mode: files*pages
	counters []uint64 // counter mode: files*pages
}

func newStampModel(seed int64, files, pages int) *model {
	return &model{seed: seed, pages: pages, stamps: make([]uint64, files*pages)}
}

func newCounterModel(seed int64, files, pages int) *model {
	return &model{seed: seed, pages: pages, counters: make([]uint64, files*pages)}
}

func (m *model) files() int {
	if m.counters != nil {
		return len(m.counters) / m.pages
	}
	return len(m.stamps) / m.pages
}

// fill writes the payload of page (f, p) at stamp into dst.
func fill(dst []byte, seed int64, f, p int, stamp uint64) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(f)<<40 ^ uint64(p)<<28 ^ stamp
	for i := 0; i+8 <= len(dst); i += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[i:], z^z>>31)
	}
}

// expect returns the bytes the model says page (f, p) holds now.
func (m *model) expect(f, p int) []byte {
	b := make([]byte, payloadSize)
	m.expectInto(b, f, p)
	return b
}

func (m *model) expectInto(b []byte, f, p int) {
	if m.counters != nil {
		fill(b, m.seed, f, p, 1<<63)
		binary.LittleEndian.PutUint64(b, m.counters[f*m.pages+p])
		return
	}
	fill(b, m.seed, f, p, m.stamps[f*m.pages+p])
}

// commitStamp records that an update stamped s committed page (f, p).
func (m *model) commitStamp(f, p int, s uint64) { m.stamps[f*m.pages+p] = s }

// commitIncrement records a committed increment of page (f, p).
func (m *model) commitIncrement(f, p int) { m.counters[f*m.pages+p]++ }

// check compares bytes the program returned for page (f, p) with the
// model's last committed bytes.
func (m *model) check(f, p int, got []byte) error {
	want := m.expect(f, p)
	if bytes.Equal(got, want) {
		return nil
	}
	if m.counters != nil && len(got) >= 8 {
		return fmt.Errorf("file %d page %d: counter %d, model says %d committed increments",
			f, p, binary.LittleEndian.Uint64(got), m.counters[f*m.pages+p])
	}
	return fmt.Errorf("file %d page %d: %d bytes differ from the last committed update's (stamp %d)",
		f, p, len(got), m.stamps[f*m.pages+p])
}
