package exec

// CompareRows is the comparator every sort path must agree with.
var CompareRows = compareRows

// ShortRun is the longest run the radix sorts by insertion.
const ShortRun = shortRun
