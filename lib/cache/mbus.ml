type transaction = Read | Read_invalidate | Invalidate

type snoop_result = Allow of { shared : bool } | Inhibit

let access_of = function
  | Read -> Tt_mem.Tag.Load
  | Read_invalidate | Invalidate -> Tt_mem.Tag.Store
