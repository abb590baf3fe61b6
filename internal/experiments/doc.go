// Package experiments is the single definition of every experiment
// recorded in EXPERIMENTS.md: for each theorem or lemma of the paper (e1–e12)
// and for the backend registry (e15) it builds the instances, fixes the
// seeds and measures the bounded quantity into the tables of its result.
// cmd/bcclap-experiments runs the registered experiments (All) and prints
// their Tables as Markdown.
//
// Every experiment takes a quick flag that shrinks its sweep for a fast
// run. A wrong flow answer is an error, not a table cell. EXPERIMENTS.md
// names the tests that hold the gates of the retired e16–e22.
package experiments
