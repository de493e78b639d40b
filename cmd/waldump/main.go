// waldump prints every record in a rating WAL, one line per record — the
// low-level inspection tool for debugging durability and recovery: pair two
// dumps with sort/diff to find resurrected or missing records, or grep for a
// sequence number to see every incarnation that journaled it.
//
//	waldump [-summary] <file.wal>
package main

import (
	"flag"
	"fmt"
	"os"

	"socialtrust/internal/persist"
)

func kindName(k byte, flags byte) string {
	switch k {
	case persist.KindRating:
		return "rating"
	case persist.KindMark:
		return "mark"
	case persist.KindFatedRating:
		s := "fated"
		if flags&persist.FateReplica != 0 {
			s += "+replica"
		}
		if unknown := flags &^ persist.FateReplica; unknown != 0 {
			s += fmt.Sprintf("+%#x", unknown)
		}
		return s
	default:
		return fmt.Sprintf("kind%d", k)
	}
}

func main() {
	summary := flag.Bool("summary", false, "print per-kind counts and seq ranges instead of records")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: waldump [-summary] <file.wal>")
		os.Exit(2)
	}
	w, recs, err := persist.Open(flag.Arg(0), persist.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer w.Close()
	if *summary {
		counts := map[string]int{}
		var minSeq, maxSeq uint64
		var lastMark uint64
		for _, r := range recs.Records {
			counts[kindName(r.Kind, r.Flags)]++
			if r.Kind == persist.KindMark {
				lastMark = r.Seq
				continue
			}
			if minSeq == 0 || r.Seq < minSeq {
				minSeq = r.Seq
			}
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
		}
		fmt.Printf("records=%d seq=[%d,%d] last-mark=%d\n", len(recs.Records), minSeq, maxSeq, lastMark)
		for k, n := range counts {
			fmt.Printf("  %-16s %d\n", k, n)
		}
		return
	}
	for _, r := range recs.Records {
		if r.Kind == persist.KindMark {
			fmt.Printf("mark interval=%d\n", r.Seq)
			continue
		}
		fmt.Printf("%-16s seq=%d rater=%d ratee=%d cycle=%d cat=%d val=%g\n",
			kindName(r.Kind, r.Flags), r.Seq, r.Rater, r.Ratee, r.Cycle, r.Category, r.Value)
	}
}
