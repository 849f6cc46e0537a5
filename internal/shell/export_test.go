package shell

import "strings"

// Exec runs a single shell line as Run does and returns its error.
func (s *Shell) Exec(line string) error { return s.dispatch(strings.TrimSpace(line)) }

// Exec runs a single remote shell line as Run does and returns its error.
func (r *Remote) Exec(line string) error { return r.dispatch(strings.TrimSpace(line)) }
