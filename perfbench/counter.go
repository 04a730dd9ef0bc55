package main

import (
	"sync/atomic"
	"time"

	"acpsgd/internal/comm"
)

// wireCounter accumulates what every rank of a group hands its transport.
type wireCounter struct {
	bytes, msgs    atomic.Int64
	sendNs, recvNs atomic.Int64
}

type wireSnapshot struct {
	bytes, msgs    int64
	sendNs, recvNs int64
}

func (c *wireCounter) snapshot() wireSnapshot {
	return wireSnapshot{c.bytes.Load(), c.msgs.Load(), c.sendNs.Load(), c.recvNs.Load()}
}

func (s wireSnapshot) sub(o wireSnapshot) wireSnapshot {
	return wireSnapshot{s.bytes - o.bytes, s.msgs - o.msgs, s.sendNs - o.sendNs, s.recvNs - o.recvNs}
}

// countingTransport counts the bytes and messages passed to Send and
// SendNoCopy and times Send, SendNoCopy and Recv. Lease, Release, Retain
// and Close reach the wrapped transport unchanged through the embedding, so
// the pooled-buffer contract is untouched.
type countingTransport struct {
	comm.Transport
	c *wireCounter
}

func (t *countingTransport) Send(to int, data []byte) error {
	start := time.Now()
	err := t.Transport.Send(to, data)
	t.noteSend(len(data), start)
	return err
}

func (t *countingTransport) SendNoCopy(to int, buf []byte) error {
	n := len(buf)
	start := time.Now()
	err := t.Transport.SendNoCopy(to, buf)
	t.noteSend(n, start)
	return err
}

func (t *countingTransport) noteSend(n int, start time.Time) {
	t.c.sendNs.Add(int64(time.Since(start)))
	t.c.bytes.Add(int64(n))
	t.c.msgs.Add(1)
}

func (t *countingTransport) Recv(from int) ([]byte, error) {
	start := time.Now()
	data, err := t.Transport.Recv(from)
	t.c.recvNs.Add(int64(time.Since(start)))
	return data, err
}
