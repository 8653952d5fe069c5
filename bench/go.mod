module github.com/elan-sys/elan/bench

go 1.22

require github.com/elan-sys/elan v0.0.0

replace github.com/elan-sys/elan => ../
