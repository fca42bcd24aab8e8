package datagen

import (
	"encoding/csv"
	"io"

	"repro/internal/storage"
	"repro/internal/val"
)

// WriteCSV streams a heap's rows as CSV with a header row of column names.
func WriteCSV(w io.Writer, h *storage.Heap) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(h.Table.Columns))
	for i, c := range h.Table.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	var writeErr error
	h.Scan(nil, func(_ storage.RowID, r val.Row) bool {
		rec := make([]string, len(r))
		for i, v := range r {
			rec[i] = v.Raw()
		}
		if err := cw.Write(rec); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	cw.Flush()
	return cw.Error()
}
