package declwalk

import "flag"

var (
	literal = Options{Keyed: 1}
	elided  = []Options{{Elided: 1}}
	mapped  = map[string]*Options{"a": {Mapped: 1}}
)

func assign(o *Options) { o.Assigned = 1 }

func flags(fs *flag.FlagSet, o *Options) { fs.IntVar(&o.Flagged, "flagged", 0, "") }
