package main

import (
	"encoding/binary"
	"errors"
	"testing"
)

// TestModelRejectsStalePage plants a read that returns an older
// committed update's bytes for a page a later update overwrote.
func TestModelRejectsStalePage(t *testing.T) {
	m := newStampModel(7, 4, 8)
	m.commitStamp(2, 3, 11)
	stale := m.expect(2, 3)
	m.commitStamp(2, 3, 12)
	if err := m.check(2, 3, m.expect(2, 3)); err != nil {
		t.Fatalf("current bytes rejected: %v", err)
	}
	if err := m.check(2, 3, stale); err == nil {
		t.Fatal("stale page accepted")
	}
	// The page of another file at the same stamp differs too.
	if err := m.check(1, 3, m.expect(2, 3)); err == nil {
		t.Fatal("another file's page accepted")
	}
}

// TestModelRejectsLostIncrement plants a history in which two committed
// updates incremented one counter but the page shows only one.
func TestModelRejectsLostIncrement(t *testing.T) {
	m := newCounterModel(7, 4, 16)
	m.commitIncrement(1, 5)
	m.commitIncrement(1, 5)
	got := m.expect(1, 5)
	if err := m.check(1, 5, got); err != nil {
		t.Fatalf("current counter rejected: %v", err)
	}
	if binary.LittleEndian.Uint64(got) != 2 {
		t.Fatalf("counter reads %d, want 2", binary.LittleEndian.Uint64(got))
	}
	binary.LittleEndian.PutUint64(got, 1)
	if err := m.check(1, 5, got); err == nil {
		t.Fatal("lost increment accepted")
	}
}

// TestCheckFilesRejectsStaleAndLostPages runs the whole-file check on
// hand-built program states: one that holds every committed update, one
// that serves an older update's bytes for one page, and one that cannot
// read a page.
func TestCheckFilesRejectsStaleAndLostPages(t *testing.T) {
	l := &load{m: newStampModel(7, 3, 4)}
	l.m.commitStamp(1, 2, 5)
	stale := l.m.expect(1, 2)
	l.m.commitStamp(1, 2, 6)
	current := func(f, p int) ([]byte, error) { return l.m.expect(f, p), nil }
	if err := checkFiles(l, current); err != nil {
		t.Fatalf("current state rejected: %v", err)
	}
	staleRead := func(f, p int) ([]byte, error) {
		if f == 1 && p == 2 {
			return stale, nil
		}
		return l.m.expect(f, p), nil
	}
	if err := checkFiles(l, staleRead); err == nil {
		t.Fatal("stale page accepted")
	}
	lost := func(f, p int) ([]byte, error) {
		if f == 2 {
			return nil, errors.New("no such version")
		}
		return l.m.expect(f, p), nil
	}
	if err := checkFiles(l, lost); err == nil {
		t.Fatal("unreadable file accepted")
	}
}

// TestCheckFilesRejectsLostUpdate runs the whole-file check on contended
// histories: one in which the program lost an increment, and one in which
// an issued update never committed although every page the program
// returns agrees with the model.
func TestCheckFilesRejectsLostUpdate(t *testing.T) {
	l := &load{m: newCounterModel(7, 4, 16)}
	for i := 0; i < 3; i++ {
		l.issued++
		l.m.commitIncrement(0, i)
		l.m.commitIncrement(1, i)
	}
	current := func(f, p int) ([]byte, error) { return l.m.expect(f, p), nil }
	if err := checkFiles(l, current); err != nil {
		t.Fatalf("consistent history rejected: %v", err)
	}
	lostIncrement := func(f, p int) ([]byte, error) {
		b := l.m.expect(f, p)
		if f == 1 && p == 2 {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)-1)
		}
		return b, nil
	}
	if err := checkFiles(l, lostIncrement); err == nil {
		t.Fatal("lost increment accepted")
	}
	l.issued++
	if err := checkFiles(l, current); err == nil {
		t.Fatal("issued update that never committed accepted")
	}
}
