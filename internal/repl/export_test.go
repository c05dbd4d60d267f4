package repl

import "cloudrepl/internal/binlog"

// PeekReceived returns the oldest batch the network has delivered to s that
// its I/O thread has not taken yet.
func (s *Slave) PeekReceived() ([]binlog.Entry, bool) { return s.io.Peek() }
