// Package stats provides the small statistical toolkit used by the
// experiment harness: summaries, percentiles, histograms, and linear fits.
// It deliberately avoids any external dependency.
//
// Table is the central type: experiments accumulate typed rows into a
// Table, which renders as an aligned plain-text table (dsgexp -format table), as
// deterministic RFC-4180 CSV (WriteCSV), or as JSON with typed cells
// (MarshalJSON). Aggregate folds the per-repeat tables of one experiment
// into a single table with mean and sample-stddev columns, the form
// cmd/dsgexp writes when -repeats > 1.
package stats
