package notify

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// refMessage is one message as the unbounded line reader decodes it:
// the text a handler would receive, and the most bytes the bounded
// reader has to hold to get it (the delivered prefix plus the raw line
// being read).
type refMessage struct {
	text string
	peak int
}

// refMessages decodes raw with the protocol's rules and no size bound:
// ReadString('\n') lines, trailing "\r\n" trimmed, ".." unstuffed, a "."
// line ending the message. A partial last line is dropped.
func refMessages(raw string) []refMessage {
	var out []refMessage
	var msg strings.Builder
	peak := 0
	for {
		i := strings.IndexByte(raw, '\n')
		if i < 0 {
			return out
		}
		rawLine := raw[:i+1]
		raw = raw[i+1:]
		peak = max(peak, msg.Len()+len(rawLine))
		line := strings.TrimRight(rawLine, "\r\n")
		switch {
		case line == ".":
			out = append(out, refMessage{msg.String(), peak})
			msg.Reset()
			peak = 0
			continue
		case strings.HasPrefix(line, ".."):
			line = line[1:]
		}
		msg.WriteString(line)
		msg.WriteByte('\n')
	}
}

// serveRaw writes raw to a fresh server connection over net.Pipe and
// returns what the handler received and the status lines the server
// replied with. net.Pipe has no half-close, and closing the client side
// drops any messages the server has read but not yet answered, so the
// client closes only after wantReplies status lines, after the server
// hangs up, or at a deadline that only a stuck server reaches.
func serveRaw(t *testing.T, raw string, wantReplies int) (got, replies []string) {
	t.Helper()
	s := NewServer(func(text string) error {
		got = append(got, text)
		return nil
	})
	serverSide, clientSide := net.Pipe()
	if err := clientSide.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.HandleConn(serverSide)
	}()
	// Buffered for every reply the server could send, so the reader
	// never stops draining the pipe while the writer is blocked.
	lines := make(chan string, strings.Count(raw, "\n")+1)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(clientSide)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	_, _ = io.WriteString(clientSide, raw) // the server may hang up first
	for len(replies) < wantReplies {
		line, ok := <-lines
		if !ok {
			break
		}
		replies = append(replies, line)
	}
	clientSide.Close()
	for line := range lines {
		replies = append(replies, line)
	}
	<-served
	return got, replies
}

// FuzzHandleConn feeds arbitrary bytes to a server connection. The server
// never panics, never hands its handler more than MaxMessageBytes, and
// never holds more than MaxMessageBytes plus one line's framing. Each
// message within those limits arrives exactly as the unbounded reader
// decodes it; the first one past them is refused with "ERR message too
// large" and ends the connection. The same bytes, sent as one message by
// Client.Send, arrive byte-exact (line endings normalized) when they fit.
func FuzzHandleConn(f *testing.F) {
	f.Add("Ticket-ID: T\nVendor: v\n.\n", uint16(1), "")
	f.Add(".\n..\n...x\r\n.x\n", uint16(3), ".\r\n")
	f.Add("x\n", uint16(MaxMessageBytes/2), ".\n")
	f.Add("x\n", uint16(MaxMessageBytes/2+1), ".\n")
	f.Add(".\n", uint16(MaxMessageBytes/2), "")
	f.Add("xx", uint16(MaxMessageBytes/2), "\n.\n")
	f.Add("x\r\r\r\n", uint16(MaxMessageBytes/4), ".\n")
	f.Fuzz(func(t *testing.T, chunk string, reps uint16, tail string) {
		if n := len(chunk) * int(reps); n > 2*MaxMessageBytes {
			reps = uint16(2 * MaxMessageBytes / len(chunk))
		}
		raw := strings.Repeat(chunk, int(reps)) + tail

		want := refMessages(raw)
		wantReplies := len(want)
		for i, m := range want {
			if len(m.text) > MaxMessageBytes || m.peak > MaxMessageBytes+len(".\r\n") {
				wantReplies = i + 1
				break
			}
		}
		got, replies := serveRaw(t, raw, wantReplies)
		for _, text := range got {
			if len(text) > MaxMessageBytes {
				t.Fatalf("handler got %d bytes, bound is %d", len(text), MaxMessageBytes)
			}
		}
		for i, m := range want {
			if len(m.text) <= MaxMessageBytes && m.peak <= MaxMessageBytes+len(".\r\n") {
				if i >= len(got) || got[i] != m.text {
					t.Fatalf("message %d not delivered as %q", i, m.text)
				}
				continue
			}
			if len(got) != i || len(replies) != i+1 || replies[i] != "ERR message too large" {
				t.Fatalf("message %d (%d bytes, peak %d): %d delivered, replies %q; want it refused",
					i, len(m.text), m.peak, len(got), replies)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %d messages, want %d", len(got), len(want))
		}

		// The same bytes as one message through the client.
		var wantText strings.Builder
		for _, line := range strings.Split(strings.TrimRight(raw, "\n"), "\n") {
			wantText.WriteString(strings.TrimRight(line, "\r"))
			wantText.WriteByte('\n')
		}
		if wantText.Len() > MaxMessageBytes {
			return // the refusal path is covered above; Send would block on net.Pipe
		}
		var sent []string
		s := NewServer(func(text string) error {
			sent = append(sent, text)
			return nil
		})
		serverSide, clientSide := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.HandleConn(serverSide)
		}()
		c := NewClient(clientSide)
		err := c.Send(raw)
		c.Close()
		<-done
		if err != nil {
			t.Fatalf("Send: %v", err)
		}
		if len(sent) != 1 || sent[0] != wantText.String() {
			t.Fatalf("Send delivered %q, want %q", sent, wantText.String())
		}
	})
}
